package main

import (
	"fmt"
	"math/rand"

	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
	spec "redfat/internal/workload"
)

// specRef is Table 1's deployment pipeline at ref scale: each of the 29
// SPEC-like benchmarks and the two switch-dense ones is profiled on its
// train input, hardened with the resulting allow-list (Table 1's "+ind"
// column), validated, and run on its ref input, baseline and hardened.
type specRef struct {
	want    string // committed Table 1 "+ind" geomean
	benches []*specBench
}

type specBench struct {
	bm        *spec.Benchmark
	bin       *relf.Binary
	origBytes int
}

func newSpecRef() (*specRef, error) {
	want, err := table1IndGeomean("results/table1.txt")
	if err != nil {
		return nil, err
	}
	return &specRef{want: want}, nil
}

// refScale mirrors the experiment harness at scale 1.0: ref budgets as
// declared (at least 800 iterations), train at one eighth of ref.
func refScale(bm *spec.Benchmark) *spec.Benchmark {
	cp := *bm
	if cp.RefScale < 800 {
		cp.RefScale = 800
	}
	cp.TrainScale = cp.RefScale / 8
	return &cp
}

func (w *specRef) setup(m *meter) error {
	w.benches = nil
	var err error
	m.call(lAsm, func() {
		for _, bm := range append(spec.All(), spec.SwitchDense()...) {
			bm = refScale(bm)
			var bin *relf.Binary
			if bin, err = bm.Build(); err != nil {
				return
			}
			w.benches = append(w.benches, &specBench{bm: bm, bin: bin})
		}
	})
	if err != nil {
		return err
	}
	for _, b := range w.benches {
		if b.origBytes, err = marshal(m, b.bin); err != nil {
			return err
		}
	}
	// Warm-up: one benchmark through the whole pipeline.
	return w.unit(w.benches[0]).run(m, m.pass)
}

func (w *specRef) order(rng *rand.Rand) []unit {
	us := make([]unit, len(w.benches))
	for i, j := range rng.Perm(len(w.benches)) {
		us[i] = w.unit(w.benches[j])
		us[i].id = j
	}
	return us
}

func (w *specRef) unit(b *specBench) unit {
	return unit{key: b.bm.Name, run: func(m *meter, p *pass) error {
		allow, err := trainAllowList(m, b)
		if err != nil {
			return err
		}
		opt := redfat.Defaults()
		opt.AllowList = allow
		hard, rep, err := harden(m, b.bin, opt)
		if err != nil {
			return err
		}
		n, err := marshal(m, hard)
		if err != nil {
			return err
		}
		bad, err := verifyHardened(m, b.bin, hard)
		if err != nil {
			return err
		}
		base, err := runBaseline(m, b.bin, b.bm.RefInput())
		if err != nil {
			return err
		}
		v, err := runHardened(m, hard, b.bm.RefInput(), false)
		if err != nil {
			return err
		}
		p.ratios = append(p.ratios, float64(v.Cycles)/float64(base.Cycles))
		p.origBytes += b.origBytes
		p.hardBytes += n
		sites := vm.DistinctErrorSites(v.Errors)
		p.identity(b.bm.Name, fmt.Sprintf("exit=%d base=%d hard=%d sites=%d checks=%d tramp=%d",
			v.ExitCode, base.Cycles, v.Cycles, sites, rep.Checks, rep.Rewrite.TrampBytes))
		if p.traced {
			p.probes = append(p.probes, probe{orig: b.bin, hard: hard, input: b.bm.RefInput()})
		}
		switch {
		case bad > 0:
			return fmt.Errorf("%d validation violations", bad)
		case v.ExitCode != base.ExitCode:
			return fmt.Errorf("hardened exit %d, baseline exit %d", v.ExitCode, base.ExitCode)
		case sites > b.bm.PlantedBugs || (sites == 0) != (b.bm.PlantedBugs == 0):
			// Dominator-based elimination lets one check cover several
			// planted reads (calculix's 4 report from 1 site), so a
			// benchmark must report at least one and at most as many
			// distinct sites as it has planted bugs.
			return fmt.Errorf("%d error sites detected, %d bugs planted", sites, b.bm.PlantedBugs)
		}
		return nil
	}}
}

// trainAllowList is phase 1 of the paper's Fig. 5 workflow: harden for
// profiling, run the train input, keep the sites that never failed.
func trainAllowList(m *meter, b *specBench) (profile.AllowList, error) {
	var (
		allow profile.AllowList
		err   error
	)
	m.call(lProfile, func() {
		opt := redfat.Defaults()
		opt.Profile = true
		opt.Merge = false
		var profBin *relf.Binary
		if profBin, _, err = redfat.Harden(b.bin, opt); err != nil {
			return
		}
		var rt *rtlib.Runtime
		if _, rt, err = rtlib.RunHardened(profBin, rtlib.RunConfig{Input: b.bm.TrainInput(),
			Flight: newFlight()}); err != nil {
			return
		}
		pr := profile.NewProfiler()
		pr.Accumulate(rt)
		allow = pr.AllowList()
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	m.pass.count("profile.allow_sites", float64(len(allow)))
	return allow, nil
}

func (w *specRef) check(p *pass) error {
	if got := fmt.Sprintf("%.2f", geomean(p.ratios)); got != w.want {
		return fmt.Errorf("guest overhead geomean %sx, Table 1 +ind says %sx", got, w.want)
	}
	return nil
}
