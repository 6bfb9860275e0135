package main

import (
	"fmt"
	"math/rand"

	"redfat/internal/kraken"
	"redfat/internal/redfat"
	"redfat/internal/relf"
)

// Figure 8's configuration: the Chrome-like image and the Kraken scale.
const (
	chromeFillers = 20000
	krakenScale   = 5000
)

// chromeHarden is §7.3 and Figure 8: the Chrome-like image is hardened
// write-only and validated, then the 14 Kraken sub-benchmarks run on it,
// baseline and hardened.
type chromeHarden struct {
	want      string // committed Figure 8 geomean, percent
	bin       *relf.Binary
	origBytes int
	hard      *relf.Binary // this pass's hardened image
}

func newChromeHarden() (*chromeHarden, error) {
	want, err := figure8Geomean("results/figure8.txt")
	if err != nil {
		return nil, err
	}
	return &chromeHarden{want: want}, nil
}

func (w *chromeHarden) setup(m *meter) error {
	var err error
	m.call(lAsm, func() { w.bin, err = kraken.Build(chromeFillers) })
	if err != nil {
		return err
	}
	if w.origBytes, err = marshal(m, w.bin); err != nil {
		return err
	}
	// Warm-up: one rewrite and one Kraken sub-benchmark.
	if err := w.rewrite().run(m, m.pass); err != nil {
		return err
	}
	return w.kraken(0).run(m, m.pass)
}

// order puts the rewrite first (the Kraken units run its output), then
// the sub-benchmarks in shuffled order.
func (w *chromeHarden) order(rng *rand.Rand) []unit {
	us := []unit{w.rewrite()}
	for _, i := range rng.Perm(len(kraken.Benchmarks)) {
		u := w.kraken(i)
		u.id = 1 + i
		us = append(us, u)
	}
	return us
}

func (w *chromeHarden) rewrite() unit {
	return unit{key: "rewrite", run: func(m *meter, p *pass) error {
		opt := redfat.Defaults()
		opt.CheckReads = false // §7.3: write protection
		hard, rep, err := harden(m, w.bin, opt)
		if err != nil {
			return err
		}
		w.hard = hard
		n, err := marshal(m, hard)
		if err != nil {
			return err
		}
		bad, err := verifyHardened(m, w.bin, hard)
		if err != nil {
			return err
		}
		p.origBytes += w.origBytes
		p.hardBytes += n
		p.identity("rewrite", fmt.Sprintf("bytes=%d checks=%d tramp=%d", n, rep.Checks, rep.Rewrite.TrampBytes))
		if p.traced {
			p.probes = append(p.probes, probe{orig: w.bin, hard: hard, input: []uint64{0, krakenScale}})
		}
		if bad > 0 {
			return fmt.Errorf("%d validation violations", bad)
		}
		return nil
	}}
}

func (w *chromeHarden) kraken(i int) unit {
	name := kraken.Benchmarks[i]
	return unit{key: name, run: func(m *meter, p *pass) error {
		in := []uint64{uint64(i), krakenScale}
		base, err := runBaseline(m, w.bin, in)
		if err != nil {
			return err
		}
		v, err := runHardened(m, w.hard, in, true)
		if err != nil {
			return err
		}
		p.ratios = append(p.ratios, float64(v.Cycles)/float64(base.Cycles))
		p.identity(name, fmt.Sprintf("exit=%d base=%d hard=%d", v.ExitCode, base.Cycles, v.Cycles))
		if v.ExitCode != base.ExitCode {
			return fmt.Errorf("checksum %d, baseline %d", v.ExitCode, base.ExitCode)
		}
		return nil
	}}
}

func (w *chromeHarden) check(p *pass) error {
	if got := fmt.Sprintf("%.0f", geomean(p.ratios)*100); got != w.want {
		return fmt.Errorf("Kraken overhead geomean %s%%, Figure 8 says %s%%", got, w.want)
	}
	return nil
}
