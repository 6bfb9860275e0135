package bench

import (
	"fmt"

	"redfat/internal/memcheck"
	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// gridConfig is one configuration of an experiment grid: the hardening
// options its cells apply, or the Memcheck model. Its name labels the
// cells' progress lines and, in Table 1, the column header.
type gridConfig struct {
	name     string
	opt      redfat.Options
	memcheck bool
}

// variants returns n configurations, each redfat.Defaults() adjusted by
// set, which also names it.
func variants(n int, set func(i int, opt *redfat.Options) string) []gridConfig {
	cfgs := make([]gridConfig, n)
	for i := range cfgs {
		cfgs[i].opt = redfat.Defaults()
		cfgs[i].name = set(i, &cfgs[i].opt)
	}
	return cfgs
}

// gridBench is one benchmark of a grid, prepared once for all its cells:
// the built binary, its reference-input baseline and, when the grid
// derives one, the train-input allow-list.
type gridBench struct {
	bm                   *workload.Benchmark
	bin                  *relf.Binary
	baseCycles, baseExit uint64
	allow                profile.AllowList
}

// gridCell is one benchmark × configuration measurement.
type gridCell struct {
	cycles   uint64
	exitOK   bool           // the exit code equals the baseline's
	coverage float64        // hardened cells only
	errors   int            // distinct error sites
	rep      *redfat.Report // hardened cells only
}

// grid is a benchmark × configuration experiment, measured.
type grid struct {
	benches []*gridBench
	cfgs    []gridConfig
	cells   []gridCell // benchmark-major
}

func (g *grid) cell(b, c int) *gridCell { return &g.cells[b*len(g.cfgs)+c] }

// total sums configuration c's cycles over the grid's benchmarks and
// returns the sum with its slow-down against the summed baselines.
func (g *grid) total(c int) (uint64, float64) {
	var total, base uint64
	for b, p := range g.benches {
		total += g.cell(b, c).cycles
		base += p.baseCycles
	}
	return total, float64(total) / float64(base)
}

// runGrid measures every benchmark, at the given scale, under every
// configuration, in two fan-out stages over the harness pool. One unit
// per benchmark builds it, runs the reference-input baseline and, when
// allow is set, derives the allow-list from the train input (paper
// methodology, Fig. 5 phase 1). Then one unit per benchmark ×
// configuration runs the reference input hardened with the
// configuration's options, or under Memcheck. The benchmark's allow-list
// (nil unless derived) replaces the options' own. what labels the
// stages' progress lines.
func (h *Harness) runGrid(what string, bms []*workload.Benchmark, scale float64, allow bool, cfgs []gridConfig) (*grid, error) {
	benches, err := fanOut(h, what+"/prep", len(bms),
		func(i int) string { return bms[i].Name },
		func(i int, reg *telemetry.Registry) (*gridBench, error) {
			return prepBench(bms[i], scale, allow, reg)
		})
	if err != nil {
		return nil, err
	}
	n := len(cfgs)
	cells, err := fanOut(h, what, len(benches)*n,
		func(i int) string { return benches[i/n].bm.Name + "/" + cfgs[i%n].name },
		func(i int, reg *telemetry.Registry) (gridCell, error) {
			return benches[i/n].measure(cfgs[i%n], reg)
		})
	if err != nil {
		return nil, err
	}
	return &grid{benches: benches, cfgs: cfgs, cells: cells}, nil
}

// sweep runs an ablation grid, which derives no allow-list, and rejects
// a cell whose exit code differs from its baseline's: no configuration
// may change a guest's result.
func (h *Harness) sweep(what string, bms []*workload.Benchmark, scale float64, cfgs []gridConfig) (*grid, error) {
	g, err := h.runGrid(what, bms, scale, false, cfgs)
	if err != nil {
		return nil, err
	}
	for i, c := range g.cells {
		if !c.exitOK {
			return nil, fmt.Errorf("bench: %s checksum changed under %s",
				g.benches[i/len(cfgs)].bm.Name, cfgs[i%len(cfgs)].name)
		}
	}
	return g, nil
}

func prepBench(bm *workload.Benchmark, scale float64, allow bool, reg *telemetry.Registry) (*gridBench, error) {
	bm = scaled(bm, scale)
	bin, err := bm.Build()
	if err != nil {
		return nil, err
	}
	base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: bm.RefInput(), Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", bm.Name, err)
	}
	p := &gridBench{bm: bm, bin: bin, baseCycles: base.Cycles, baseExit: base.ExitCode}
	if allow {
		if p.allow, err = allowListFor(bin, bm, reg); err != nil {
			return nil, err
		}
	}
	return p, nil
}

func (p *gridBench) measure(c gridConfig, reg *telemetry.Registry) (gridCell, error) {
	run := rtlib.RunConfig{Input: p.bm.RefInput(), Metrics: reg}
	var (
		v   *vm.VM
		rt  *rtlib.Runtime
		rep *redfat.Report
		err error
	)
	if c.memcheck {
		v, err = memcheck.Run(p.bin, run)
	} else {
		opt := c.opt
		opt.AllowList = p.allow
		var hard *relf.Binary
		if hard, rep, err = redfat.Harden(p.bin, opt); err == nil {
			v, rt, err = rtlib.RunHardened(hard, run)
		}
	}
	if err != nil {
		return gridCell{}, fmt.Errorf("%s %s: %w", p.bm.Name, c.name, err)
	}
	cell := gridCell{cycles: v.Cycles, exitOK: v.ExitCode == p.baseExit,
		errors: vm.DistinctErrorSites(v.Errors), rep: rep}
	if rt != nil {
		cell.coverage = rtlib.Coverage(rt)
	}
	return cell, nil
}

// benchmarks resolves benchmark names; nil names select all().
func benchmarks(names []string, all func() []*workload.Benchmark) ([]*workload.Benchmark, error) {
	if names == nil {
		return all(), nil
	}
	bms := make([]*workload.Benchmark, len(names))
	for i, name := range names {
		if bms[i] = workload.ByName(name); bms[i] == nil {
			return nil, fmt.Errorf("bench: unknown benchmark %q", name)
		}
	}
	return bms, nil
}

func allowListFor(bin *relf.Binary, bm *workload.Benchmark, reg *telemetry.Registry) (profile.AllowList, error) {
	profBin, _, err := redfat.Harden(bin, profile.Options(redfat.Defaults()))
	if err != nil {
		return nil, err
	}
	p := profile.NewProfiler()
	_, rt, err := rtlib.RunHardened(profBin, rtlib.RunConfig{Input: bm.TrainInput(), Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("%s profiling: %w", bm.Name, err)
	}
	p.Accumulate(rt)
	return p.AllowList(), nil
}

func scaled(bm *workload.Benchmark, scale float64) *workload.Benchmark {
	cp := *bm
	cp.RefScale = uint64(float64(bm.RefScale) * scale)
	if cp.RefScale < 800 {
		cp.RefScale = 800
	}
	cp.TrainScale = cp.RefScale / 8
	return &cp
}
