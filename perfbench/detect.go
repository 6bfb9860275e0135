package main

import (
	"fmt"
	"math/rand"
	"strings"

	"redfat/internal/juliet"
	"redfat/internal/redfat"
	"redfat/internal/relf"
)

// detect is Table 2 plus the temporal extension: every bad case (4 CVE
// models, 480 Juliet CWE-122, 4 libc, 64 use-after-free, 16 double-free)
// and its good variant is hardened, validated, and run under RedFat with
// abort on error and under Memcheck.
type detect struct {
	rows  []table2Row
	cases []*detectCase
}

type detectCase struct {
	key       string
	c         *juliet.Case
	good      bool
	in        []uint64
	bin       *relf.Binary
	origBytes int
	row       int // index into detect.rows (bad cases)

	// Reference baseline run of a good variant.
	baseExit, baseCycles uint64
}

func newDetect() (*detect, error) {
	rows, err := table2Rows("results/table2.txt")
	if err != nil {
		return nil, err
	}
	return &detect{rows: rows}, nil
}

// suite lists the bad cases in Table 2 order.
func suite() []*juliet.Case {
	var cs []*juliet.Case
	for _, s := range [][]*juliet.Case{juliet.CVECases(), juliet.JulietCases(),
		juliet.LibcCases(), juliet.UAFCases(), juliet.DoubleFreeCases()} {
		cs = append(cs, s...)
	}
	return cs
}

// rowOf finds the committed Table 2 row a bad case is counted in.
func (w *detect) rowOf(c *juliet.Case) (int, error) {
	for i, r := range w.rows {
		match := strings.HasPrefix(r.id, c.ID+" ")
		switch c.Group {
		case "Juliet":
			match = strings.HasPrefix(r.id, "CWE-122-")
		case "CWE416":
			match = strings.HasPrefix(r.id, "CWE-416-")
		case "CWE415":
			match = strings.HasPrefix(r.id, "CWE-415-")
		}
		if match {
			return i, nil
		}
	}
	return 0, fmt.Errorf("%s: no Table 2 row", c.ID)
}

func (w *detect) setup(m *meter) error {
	w.cases = nil
	var err error
	m.call(lAsm, func() {
		for _, c := range suite() {
			for _, good := range []bool{false, true} {
				dc := &detectCase{key: c.ID + "/bad", c: c, good: good, in: juliet.Trigger(c)}
				if good {
					dc.key, dc.in = c.ID+"/good", juliet.GoodInput(c)
					dc.bin, err = c.BuildGood()
				} else {
					dc.bin, err = c.Build()
				}
				if err != nil {
					return
				}
				w.cases = append(w.cases, dc)
			}
		}
	})
	if err != nil {
		return err
	}
	perRow := make([]int, len(w.rows))
	for _, dc := range w.cases {
		if dc.origBytes, err = marshal(m, dc.bin); err != nil {
			return err
		}
		if !dc.good {
			if dc.row, err = w.rowOf(dc.c); err != nil {
				return err
			}
			perRow[dc.row]++
			continue
		}
		// Reference: the good variant's baseline run.
		v, err := runBaseline(m, dc.bin, dc.in)
		if err != nil {
			return fmt.Errorf("%s: %w", dc.key, err)
		}
		dc.baseExit, dc.baseCycles = v.ExitCode, v.Cycles
	}
	for i, r := range w.rows {
		if perRow[i] != r.total {
			return fmt.Errorf("Table 2 row %q has %d cases, the suite %d", r.id, r.total, perRow[i])
		}
	}
	// Warm-up: one bad and one good case.
	for _, dc := range w.cases[:2] {
		if err := w.unit(dc).run(m, m.pass); err != nil {
			return err
		}
	}
	return nil
}

func (w *detect) order(rng *rand.Rand) []unit {
	us := make([]unit, len(w.cases))
	for i, j := range rng.Perm(len(w.cases)) {
		us[i] = w.unit(w.cases[j])
		us[i].id = j
	}
	return us
}

func (w *detect) unit(dc *detectCase) unit {
	return unit{key: dc.key, run: func(m *meter, p *pass) error {
		hard, rep, err := harden(m, dc.bin, redfat.Defaults())
		if err != nil {
			return err
		}
		n, err := marshal(m, hard)
		if err != nil {
			return err
		}
		bad, err := verifyHardened(m, dc.bin, hard)
		if err != nil {
			return err
		}
		rv, rerr := runHardened(m, hard, dc.in, true)
		rf, err := detected(rv, rerr)
		if err != nil {
			return err
		}
		mv, merr := runMemcheck(m, dc.bin, dc.in)
		mc, err := detected(mv, merr)
		if err != nil {
			return err
		}
		p.origBytes += dc.origBytes
		p.hardBytes += n
		p.identity(dc.key, fmt.Sprintf("redfat=%v/%d memcheck=%v/%d checks=%d tramp=%d",
			rf, rv.Cycles, mc, mv.Cycles, rep.Checks, rep.Rewrite.TrampBytes))
		if p.traced {
			p.probes = append(p.probes, probe{orig: dc.bin, hard: hard, input: dc.in})
		}
		if bad > 0 {
			return fmt.Errorf("%d validation violations", bad)
		}
		if !dc.good {
			r := w.rows[dc.row]
			p.tally[r.id+"/redfat"] += b2i(rf)
			p.tally[r.id+"/memcheck"] += b2i(mc)
			if want := r.redfat == r.total; rf != want {
				return fmt.Errorf("RedFat detected=%v, Table 2 row %q says %v", rf, r.id, want)
			}
			if want := r.memcheck == r.total; mc != want {
				return fmt.Errorf("Memcheck detected=%v, Table 2 row %q says %v", mc, r.id, want)
			}
			return nil
		}
		p.ratios = append(p.ratios, float64(rv.Cycles)/float64(dc.baseCycles))
		switch {
		case rf || mc:
			return fmt.Errorf("good variant flagged (RedFat %v, Memcheck %v)", rf, mc)
		case rv.ExitCode != dc.baseExit || mv.ExitCode != dc.baseExit:
			return fmt.Errorf("exit RedFat %d, Memcheck %d, baseline %d", rv.ExitCode, mv.ExitCode, dc.baseExit)
		}
		return nil
	}}
}

// check compares the pass's detection totals with every Table 2 row.
func (w *detect) check(p *pass) error {
	for _, r := range w.rows {
		rf, mc := p.tally[r.id+"/redfat"], p.tally[r.id+"/memcheck"]
		if rf != r.redfat || mc != r.memcheck {
			return fmt.Errorf("Table 2 row %q: RedFat %d, Memcheck %d; committed %d, %d",
				r.id, rf, mc, r.redfat, r.memcheck)
		}
	}
	return nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
