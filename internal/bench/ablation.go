package bench

import (
	"fmt"
	"io"

	"redfat/internal/fuzz"
	"redfat/internal/kraken"
	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/workload"
)

// TacticRow reports the patch-tactic mix for one instrumented binary —
// the ablation DESIGN.md calls out for the rewriting substrate (how often
// the direct jmp32, byte-stealing and trap tactics fire).
type TacticRow struct {
	Name       string `json:"name"`
	TextBytes  int    `json:"text_bytes"`
	Checks     int    `json:"checks"`
	T1         int    `json:"t1"`
	T2         int    `json:"t2"`
	T3         int    `json:"t3"`
	TrampBytes int    `json:"tramp_bytes"`
}

// Tactics instruments every SPEC-like benchmark plus the Chrome-scale
// image with the production configuration and reports tactic statistics.
// Each binary is one pool unit.
func (h *Harness) Tactics(fillerFuncs int, w io.Writer) ([]TacticRow, error) {
	bms := workload.All()
	n := len(bms) + 1 // + the Chrome-scale image
	name := func(i int) string {
		if i == len(bms) {
			return "chrome"
		}
		return bms[i].Name
	}
	rows, err := fanOut(h, "tactics", n, name,
		func(i int, _ *telemetry.Registry) (TacticRow, error) {
			var (
				bin *relf.Binary
				err error
			)
			if i == len(bms) {
				bin, err = kraken.Build(fillerFuncs)
			} else {
				bin, err = bms[i].Build()
			}
			if err != nil {
				return TacticRow{}, err
			}
			_, rep, err := redfat.Harden(bin, redfat.Defaults())
			if err != nil {
				return TacticRow{}, err
			}
			return TacticRow{
				Name: name(i), TextBytes: len(bin.Text().Data), Checks: rep.Checks,
				T1: rep.Rewrite.T1, T2: rep.Rewrite.T2, T3: rep.Rewrite.T3,
				TrampBytes: rep.Rewrite.TrampBytes,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	if w != nil {
		fmt.Fprintf(w, "%-12s %10s %8s %8s %8s %8s %10s\n",
			"binary", "text(B)", "checks", "T1", "T2", "T3", "tramp(B)")
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %10d %8d %8d %8d %8d %10d\n",
				r.Name, r.TextBytes, r.Checks, r.T1, r.T2, r.T3, r.TrampBytes)
		}
	}
	return rows, nil
}

// BatchRow reports the overhead at one maximum batch width.
type BatchRow struct {
	MaxBatch int     `json:"max_batch"`
	Slowdown float64 `json:"slowdown"`
}

// BatchSweep measures the benefit of check batching as a function of the
// maximum trampoline batch width, on a store-dense benchmark; each width
// is one grid configuration.
func (h *Harness) BatchSweep(benchName string, scale float64, w io.Writer) ([]BatchRow, error) {
	bms, err := benchmarks([]string{benchName}, nil)
	if err != nil {
		return nil, err
	}
	widths := []int{1, 2, 4, 8, 16}
	g, err := h.sweep("batch", bms, scale, variants(len(widths), func(i int, opt *redfat.Options) string {
		opt.MaxBatch = widths[i]
		if widths[i] == 1 {
			opt.Batch = false
			opt.Merge = false
		}
		return fmt.Sprintf("width-%d", widths[i])
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]BatchRow, len(widths))
	for c, width := range widths {
		rows[c].MaxBatch = width
		_, rows[c].Slowdown = g.total(c)
	}
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "max batch %2d: %6.2fx\n", r.MaxBatch, r.Slowdown)
		}
	}
	return rows, nil
}

// ClobberRow compares trampoline save/restore cost with and without the
// dead-register specialization (paper §6, low-level optimizations).
type ClobberRow struct {
	Specialized bool    `json:"specialized"`
	Slowdown    float64 `json:"slowdown"`
}

// ClobberSweep measures the benefit of the dead-register trampoline
// specialization on one benchmark; each variant is one grid
// configuration.
func (h *Harness) ClobberSweep(benchName string, scale float64, w io.Writer) ([]ClobberRow, error) {
	bms, err := benchmarks([]string{benchName}, nil)
	if err != nil {
		return nil, err
	}
	specs := []bool{false, true}
	g, err := h.sweep("clobber", bms, scale, variants(len(specs), func(i int, opt *redfat.Options) string {
		opt.NoClobberSpec = !specs[i]
		return fmt.Sprintf("specialized-%v", specs[i])
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]ClobberRow, len(specs))
	for c, spec := range specs {
		rows[c].Specialized = spec
		_, rows[c].Slowdown = g.total(c)
	}
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "clobber specialization %-5v: %6.2fx\n", r.Specialized, r.Slowdown)
		}
	}
	return rows, nil
}

// FuzzRow compares allow-list coverage with and without the
// coverage-guided profiling boost (paper §5 / E9AFL).
type FuzzRow struct {
	Runs     int     `json:"runs"`
	Coverage float64 `json:"coverage"`
}

// FuzzBoostStudy measures production coverage on a train-gated benchmark
// as the fuzzing budget grows. The build and profile rewrite run once,
// serially; the budgets fan out as pool units.
func (h *Harness) FuzzBoostStudy(benchName string, budgets []int, w io.Writer) ([]FuzzRow, error) {
	bm := workload.ByName(benchName)
	if bm == nil {
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchName)
	}
	bm = scaled(bm, 0.02)
	bin, err := bm.Build()
	if err != nil {
		return nil, err
	}
	profBin, _, err := redfat.Harden(bin, profile.Options(redfat.Defaults()))
	if err != nil {
		return nil, err
	}
	rows, err := fanOut(h, "fuzz", len(budgets),
		func(i int) string { return fmt.Sprintf("budget-%d", budgets[i]) },
		func(i int, reg *telemetry.Registry) (FuzzRow, error) {
			res, err := fuzz.Boost(profBin, [][]uint64{bm.TrainInput()}, fuzz.Options{
				MaxRuns: budgets[i], MaxCycles: 50_000_000,
			})
			if err != nil {
				return FuzzRow{}, err
			}
			opt := redfat.Defaults()
			opt.AllowList = res.Profiler.AllowList()
			hard, _, err := redfat.Harden(bin, opt)
			if err != nil {
				return FuzzRow{}, err
			}
			_, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput(), Metrics: reg})
			if err != nil {
				return FuzzRow{}, err
			}
			return FuzzRow{Runs: budgets[i], Coverage: rtlib.Coverage(rt)}, nil
		})
	if err != nil {
		return nil, err
	}
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "fuzz budget %4d runs: coverage %5.1f%%\n", r.Runs, 100*r.Coverage)
		}
	}
	return rows, nil
}

// DataflowRow reports total guest cycles over a workload suite for one
// dataflow-engine configuration (the §6 knobs the global analyses add).
type DataflowRow struct {
	ElimDom       bool    `json:"elim_dom"`
	LocalLiveness bool    `json:"local_liveness"`
	TotalCycles   uint64  `json:"total_cycles"`
	Slowdown      float64 `json:"slowdown"`
}

// dataflowCombos orders the knob matrix from least to most analysis:
// block-local liveness without elimination first (the pre-engine
// behavior), whole-CFG liveness plus dominator elimination last (the
// production default).
var dataflowCombos = []struct{ elimDom, local bool }{
	{false, true},  // local liveness, no dominator elimination
	{false, false}, // global liveness only
	{true, true},   // dominator elimination, local liveness
	{true, false},  // global liveness + dominator elimination
}

// DataflowSweep measures the dataflow-engine ablation: every combination
// of {ElimDom} × {LocalLiveness} over the named benchmarks (nil = the
// full suite), one grid configuration per combination.
func (h *Harness) DataflowSweep(names []string, scale float64, w io.Writer) ([]DataflowRow, error) {
	bms, err := benchmarks(names, workload.All)
	if err != nil {
		return nil, err
	}
	g, err := h.sweep("dataflow", bms, scale, variants(len(dataflowCombos), func(i int, opt *redfat.Options) string {
		c := dataflowCombos[i]
		opt.ElimDom = c.elimDom
		opt.LocalLiveness = c.local
		return fmt.Sprintf("dom=%v,local=%v", c.elimDom, c.local)
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]DataflowRow, len(dataflowCombos))
	for ci, c := range dataflowCombos {
		rows[ci] = DataflowRow{ElimDom: c.elimDom, LocalLiveness: c.local}
		rows[ci].TotalCycles, rows[ci].Slowdown = g.total(ci)
	}
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "elimdom=%-5v local-liveness=%-5v: %14d cycles %6.2fx\n",
				r.ElimDom, r.LocalLiveness, r.TotalCycles, r.Slowdown)
		}
		before, after := rows[0].TotalCycles, rows[len(rows)-1].TotalCycles
		if before > 0 {
			fmt.Fprintf(w, "global liveness + dominator elimination: %d cycles saved (%.2f%%)\n",
				int64(before)-int64(after), 100*(1-float64(after)/float64(before)))
		}
	}
	return rows, nil
}

// IndirectRow reports one {indirect-flow recovery} × {dominator
// elimination} combination over the switch-dense suite: total guest
// cycles, the recovered-edge claims the rewriter made, and the dominated
// checks it removed.
type IndirectRow struct {
	NoIndirect  bool    `json:"no_indirect"`
	ElimDom     bool    `json:"elim_dom"`
	TotalCycles uint64  `json:"total_cycles"`
	Slowdown    float64 `json:"slowdown"`
	Resolved    int     `json:"resolved"`       // recovered indirect-flow claims
	Eliminated  int     `json:"elim_dominated"` // checks removed as dominated
}

// indirectCombos orders the knob matrix from least to most analysis:
// recovery off first, the production default (recovery + dominator
// elimination) last. The recovery-off/dom row is the interesting
// counterfactual: eliminations its Unknown frontier blocks are exactly
// what the +ind rows unlock.
var indirectCombos = []struct{ noInd, elimDom bool }{
	{true, false},  // no recovery, no dominator elimination
	{true, true},   // no recovery, dominator elimination
	{false, false}, // recovery, no dominator elimination
	{false, true},  // recovery + dominator elimination (production)
}

// IndirectSweep measures the indirect-flow-recovery ablation: every
// combination of {NoIndirect} × {ElimDom} over the named benchmarks
// (nil = the switch-dense suite, the marker-built workloads where
// recovery has edges to find), one grid configuration per combination.
// Like every sweep, it rejects a cell whose exit checksum differs from
// the baseline's: recovery must never change guest results.
func (h *Harness) IndirectSweep(names []string, scale float64, w io.Writer) ([]IndirectRow, error) {
	bms, err := benchmarks(names, workload.SwitchDense)
	if err != nil {
		return nil, err
	}
	g, err := h.sweep("indirect", bms, scale, variants(len(indirectCombos), func(i int, opt *redfat.Options) string {
		c := indirectCombos[i]
		opt.NoIndirect = c.noInd
		opt.ElimDom = c.elimDom
		return fmt.Sprintf("noind=%v,dom=%v", c.noInd, c.elimDom)
	}))
	if err != nil {
		return nil, err
	}
	rows := make([]IndirectRow, len(indirectCombos))
	for ci, c := range indirectCombos {
		r := &rows[ci]
		r.NoIndirect, r.ElimDom = c.noInd, c.elimDom
		r.TotalCycles, r.Slowdown = g.total(ci)
		for b := range g.benches {
			rep := g.cell(b, ci).rep
			r.Resolved += rep.IndirectResolved
			r.Eliminated += rep.ElimDominated
		}
	}
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "noindirect=%-5v elimdom=%-5v: %14d cycles %6.2fx  resolved %4d  elim-dominated %5d\n",
				r.NoIndirect, r.ElimDom, r.TotalCycles, r.Slowdown, r.Resolved, r.Eliminated)
		}
		blocked, unlocked := rows[1], rows[len(rows)-1]
		fmt.Fprintf(w, "recovered edges unlocked %d dominated-check eliminations (%d → %d) and saved %d cycles\n",
			unlocked.Eliminated-blocked.Eliminated, blocked.Eliminated, unlocked.Eliminated,
			int64(blocked.TotalCycles)-int64(unlocked.TotalCycles))
	}
	return rows, nil
}
