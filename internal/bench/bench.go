// Package bench is the experiment harness: it regenerates every table and
// figure of the paper's evaluation (§7) on the RF64 substrate.
//
//	Table1         — SPEC CPU2006 slow-downs and coverage (§7.1)
//	DetectedErrors — the calculix/wrf OOB reads (§7.1)
//	FalsePositives — FP counts with the allow-list disabled (§7.1)
//	Table2         — CVE + Juliet non-incremental detection (§7.2)
//	Figure8        — Chrome/Kraken write-protection overhead (§7.3)
//	Ablation       — patch-tactic and batching ablations (ours)
//
// Slow-downs are measured in deterministic VM cycles. Absolute numbers are
// not comparable to the paper's Xeon wall-clock; orderings and rough
// ratios are (see EXPERIMENTS.md).
//
// Every experiment is a method on Harness, which fans independent units
// (a benchmark, a benchmark × configuration cell, a Juliet case) over a
// bounded worker pool and renders the assembled results afterwards, so
// output is byte-identical at any pool width. The zero-value Harness runs
// them serially.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"

	"redfat/internal/juliet"
	"redfat/internal/kraken"
	"redfat/internal/memcheck"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// GeoMean returns the geometric mean of xs (ignoring non-positive values).
func GeoMean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Table1Row holds one benchmark's results in paper Table 1 layout.
type Table1Row struct {
	Name     string        `json:"name"`
	Lang     workload.Lang `json:"lang"`
	Coverage float64       `json:"coverage"` // fraction of executed checks that are full-mode

	BaselineCycles uint64 `json:"baseline_cycles"`

	// Slow-down factors vs baseline, one per table1Configs column.
	Unopt    float64 `json:"unopt"`
	Elim     float64 `json:"elim"`
	Batch    float64 `json:"batch"`
	Merge    float64 `json:"merge"`
	Dom      float64 `json:"dom"`
	Ind      float64 `json:"ind"`
	NoSize   float64 `json:"nosize"`
	NoReads  float64 `json:"noreads"`
	Memcheck float64 `json:"memcheck"`

	DetectedErrors int  `json:"detected_errors"` // distinct genuine error sites found during ref
	ChecksumOK     bool `json:"checksum_ok"`
}

// columns lists the row's slow-down fields in table1Configs order.
func (r *Table1Row) columns() []*float64 {
	return []*float64{&r.Unopt, &r.Elim, &r.Batch, &r.Merge, &r.Dom, &r.Ind, &r.NoSize, &r.NoReads, &r.Memcheck}
}

// table1Configs returns Table 1's columns: the instrumentation ladder,
// then the Memcheck comparison. The names are the column headers. The
// ladder runs with indirect-flow recovery disabled through +dom so the
// +ind step isolates the recovered-edge benefit (elimination across
// formerly-Unknown boundaries); the later columns inherit recovery on.
// Each benchmark's allow-list is added per cell.
func table1Configs() []gridConfig {
	unopt := redfat.Options{LowFat: true, CheckReads: true, SizeCheck: true, NoIndirect: true}
	elim := unopt
	elim.Elim = true
	batch := elim
	batch.Batch = true
	merge := batch
	merge.Merge = true
	dom := merge
	dom.ElimDom = true
	ind := dom
	ind.NoIndirect = false
	nosize := ind
	nosize.SizeCheck = false
	noreads := nosize
	noreads.CheckReads = false
	return []gridConfig{{name: "unopt", opt: unopt}, {name: "+elim", opt: elim},
		{name: "+batch", opt: batch}, {name: "+merge", opt: merge}, {name: "+dom", opt: dom},
		{name: "+ind", opt: ind}, {name: "-size", opt: nosize}, {name: "-reads", opt: noreads},
		{name: "memcheck", memcheck: true}}
}

// table1Merge is the +merge column: full checking with per-site reports
// intact, which a row's coverage and detected errors come from.
const table1Merge = 3

// Table1Bench runs the full Table 1 pipeline for one benchmark at the
// given workload scale (1.0 = full ref size), serially.
func Table1Bench(bm *workload.Benchmark, scale float64) (*Table1Row, error) {
	rows, err := (&Harness{}).table1([]*workload.Benchmark{bm}, scale)
	if err != nil {
		return nil, err
	}
	return rows[0], nil
}

// Table1 runs every benchmark through the Table 1 grid over the harness
// pool and renders the table to w (nil ok). Rows are assembled in
// benchmark order regardless of completion order, so the output is
// identical at any pool width. The switch-dense marker-built benchmarks
// ride along after the SPEC set: they are where the +ind column
// separates from +dom (the SPEC binaries carry no jump-table
// declarations, so recovery is a no-op there).
func (h *Harness) Table1(scale float64, w io.Writer) ([]*Table1Row, error) {
	rows, err := h.table1(append(workload.All(), workload.SwitchDense()...), scale)
	if err != nil {
		return nil, err
	}
	renderTable1(rows, w)
	return rows, nil
}

// table1 folds the Table 1 grid over bms into one row per benchmark.
func (h *Harness) table1(bms []*workload.Benchmark, scale float64) ([]*Table1Row, error) {
	g, err := h.runGrid("table1", bms, scale, true, table1Configs())
	if err != nil {
		return nil, err
	}
	rows := make([]*Table1Row, len(g.benches))
	for b, p := range g.benches {
		merge := g.cell(b, table1Merge)
		row := &Table1Row{Name: p.bm.Name, Lang: p.bm.Lang, Coverage: merge.coverage,
			BaselineCycles: p.baseCycles, DetectedErrors: merge.errors, ChecksumOK: true}
		for c, col := range row.columns() {
			cell := g.cell(b, c)
			*col = float64(cell.cycles) / float64(p.baseCycles)
			row.ChecksumOK = row.ChecksumOK && cell.exitOK
		}
		rows[b] = row
	}
	return rows, nil
}

// renderTable1 writes the header, the per-benchmark rows and the
// geomean summary row.
func renderTable1(rows []*Table1Row, w io.Writer) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "%-12s %7s %12s", "benchmark", "cover", "baseline")
	for _, c := range table1Configs() {
		fmt.Fprintf(w, " %9s", c.name)
	}
	fmt.Fprintln(w)
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %6.1f%% %12d", row.Name, row.Coverage*100, row.BaselineCycles)
		writeColumns(w, row.columns())
		fmt.Fprintf(w, " %s\n", okFlag(row.ChecksumOK))
	}
	s := Summarize(rows)
	fmt.Fprintf(w, "%-12s %6.1f%% %12s", "geomean", 100*s.MeanCoverage, "")
	writeColumns(w, s.columns())
	fmt.Fprintln(w)
}

func writeColumns(w io.Writer, cols []*float64) {
	for _, x := range cols {
		fmt.Fprintf(w, " %8.2fx", *x)
	}
}

func okFlag(ok bool) string {
	if ok {
		return ""
	}
	return "CHECKSUM-MISMATCH"
}

// FPRow is one benchmark's false-positive count (allow-list disabled).
type FPRow struct {
	Name    string `json:"name"`
	Count   int    `json:"count"` // distinct false-positive sites
	Planted int    `json:"planted"`
}

// FalsePositives reruns benchmarks with full (Redzone)+(LowFat) on all
// memory accesses (no allow-list) and counts distinct false-positive
// sites (§7.1 "False positives"). A site is a false positive if it is
// flagged under full checking but not under redzone-only checking.
// Benchmarks fan out as units over the harness pool.
func (h *Harness) FalsePositives(scale float64, w io.Writer) ([]FPRow, error) {
	bms := workload.All()
	type fpUnit struct {
		row  FPRow
		keep bool
	}
	units, err := fanOut(h, "falsepos", len(bms),
		func(i int) string { return bms[i].Name },
		func(i int, reg *telemetry.Registry) (fpUnit, error) {
			bm := scaled(bms[i], scale)
			bin, err := bm.Build()
			if err != nil {
				return fpUnit{}, err
			}
			fullPCs, err := errorPCs(bin, bm, true, reg)
			if err != nil {
				return fpUnit{}, err
			}
			rzPCs, err := errorPCs(bin, bm, false, reg)
			if err != nil {
				return fpUnit{}, err
			}
			n := 0
			for pc := range fullPCs {
				if !rzPCs[pc] {
					n++
				}
			}
			return fpUnit{
				row:  FPRow{Name: bm.Name, Count: n, Planted: bm.PlantedFPs},
				keep: n > 0 || bm.PlantedFPs > 0,
			}, nil
		})
	if err != nil {
		return nil, err
	}
	var rows []FPRow
	for _, u := range units {
		if u.keep {
			rows = append(rows, u.row)
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %4d false positives (planted %d)\n", r.Name, r.Count, r.Planted)
		}
	}
	return rows, nil
}

func errorPCs(bin *relf.Binary, bm *workload.Benchmark, lowfat bool, reg *telemetry.Registry) (map[uint64]bool, error) {
	opt := redfat.Defaults()
	opt.LowFat = lowfat
	opt.Merge = false   // per-operand sites, as the paper counts reports
	opt.ElimDom = false // keep dominated duplicates: reports stay per operand
	hard, _, err := redfat.Harden(bin, opt)
	if err != nil {
		return nil, err
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput(), Metrics: reg})
	if err != nil {
		return nil, err
	}
	return vm.ErrorSites(v.Errors), nil
}

// Table2Row is one line of paper Table 2.
type Table2Row struct {
	ID       string `json:"id"`
	Total    int    `json:"total"`
	Memcheck int    `json:"memcheck"` // detected by Memcheck
	RedFat   int    `json:"redfat"`   // detected by RedFat
}

// detection is one case's verdict under both tools.
type detection struct {
	redfat, memcheck bool
}

// detectAll fans the given cases over the harness pool, running each
// under RedFat and Memcheck.
func (h *Harness) detectAll(what string, cases []*juliet.Case) ([]detection, error) {
	return fanOut(h, what, len(cases),
		func(i int) string { return cases[i].ID },
		func(i int, reg *telemetry.Registry) (detection, error) {
			rf, mc, err := detects(cases[i], reg)
			if err != nil {
				return detection{}, fmt.Errorf("%s: %w", cases[i].ID, err)
			}
			return detection{redfat: rf, memcheck: mc}, nil
		})
}

// Table2 runs the CVE models, the Juliet CWE-122 suite, and the
// OOB-through-libc suite under both tools (§7.2). Every case is one pool
// unit. The libc rows isolate overflows performed inside interposed
// routines: per-access instrumentation never sees those bytes move, so a
// RedFat hit there proves the intrinsic span checks specifically.
func (h *Harness) Table2(w io.Writer) ([]Table2Row, error) {
	cves := juliet.CVECases()
	jcs := juliet.JulietCases()
	lcs := juliet.LibcCases()
	cases := make([]*juliet.Case, 0, len(cves)+len(jcs)+len(lcs))
	cases = append(cases, cves...)
	cases = append(cases, jcs...)
	cases = append(cases, lcs...)
	dets, err := h.detectAll("table2", cases)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	for i, c := range cves {
		rows = append(rows, Table2Row{ID: c.ID + " (" + cveProgram(c.ID) + ")",
			Total: 1, Memcheck: b2i(dets[i].memcheck), RedFat: b2i(dets[i].redfat)})
	}
	jr := Table2Row{ID: "CWE-122-Heap-Buffer (Juliet)", Total: juliet.NumJuliet}
	for _, d := range dets[len(cves) : len(cves)+len(jcs)] {
		jr.Memcheck += b2i(d.memcheck)
		jr.RedFat += b2i(d.redfat)
	}
	rows = append(rows, jr)
	for i, c := range lcs {
		d := dets[len(cves)+len(jcs)+i]
		rows = append(rows, Table2Row{ID: c.ID + " (libredfat)",
			Total: 1, Memcheck: b2i(d.memcheck), RedFat: b2i(d.redfat)})
	}
	renderTable2(rows, w)
	return rows, nil
}

func renderTable2(rows []Table2Row, w io.Writer) {
	if w == nil {
		return
	}
	for _, r := range rows {
		fmt.Fprintf(w, "%-34s Memcheck %3d/%d (%3.0f%%)  RedFat %3d/%d (%3.0f%%)\n",
			r.ID, r.Memcheck, r.Total, 100*float64(r.Memcheck)/float64(r.Total),
			r.RedFat, r.Total, 100*float64(r.RedFat)/float64(r.Total))
	}
}

func cveProgram(id string) string {
	switch id {
	case "CVE-2007-3476", "CVE-2016-1903":
		return "php"
	case "CVE-2012-4295":
		return "wireshark"
	case "CVE-2016-2335":
		return "7zip"
	}
	return "?"
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// detects runs one bad case under both tools.
func detects(c *juliet.Case, reg *telemetry.Registry) (redfatHit, memcheckHit bool, err error) {
	bin, err := c.Build()
	if err != nil {
		return false, false, err
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		return false, false, err
	}
	v, _, rerr := rtlib.RunHardened(hard, rtlib.RunConfig{Input: juliet.Trigger(c), Abort: true, Metrics: reg})
	if _, ok := rerr.(*vm.MemError); ok {
		redfatHit = true
	} else if rerr != nil {
		return false, false, rerr
	}
	redfatHit = redfatHit || len(v.Errors) > 0

	mv, merr := memcheck.Run(bin, rtlib.RunConfig{Input: juliet.Trigger(c), Abort: true, Metrics: reg})
	if _, ok := merr.(*vm.MemError); ok {
		memcheckHit = true
	} else if merr != nil {
		return false, false, merr
	}
	memcheckHit = memcheckHit || len(mv.Errors) > 0
	return redfatHit, memcheckHit, nil
}

// Table2Extended runs the CWE-416 (use-after-free) and CWE-415 (double
// free) extension suites — temporal errors beyond the paper's Table 2,
// validating the redzone component's Free-state detection. Every case is
// one pool unit.
func (h *Harness) Table2Extended(w io.Writer) ([]Table2Row, error) {
	suites := []struct {
		id    string
		cases []*juliet.Case
	}{
		{"CWE-416-Use-After-Free", juliet.UAFCases()},
		{"CWE-415-Double-Free", juliet.DoubleFreeCases()},
	}
	var all []*juliet.Case
	for _, s := range suites {
		all = append(all, s.cases...)
	}
	dets, err := h.detectAll("table2ext", all)
	if err != nil {
		return nil, err
	}
	var rows []Table2Row
	off := 0
	for _, s := range suites {
		row := Table2Row{ID: s.id, Total: len(s.cases)}
		for _, d := range dets[off : off+len(s.cases)] {
			row.RedFat += b2i(d.redfat)
			row.Memcheck += b2i(d.memcheck)
		}
		off += len(s.cases)
		rows = append(rows, row)
	}
	renderTable2(rows, w)
	return rows, nil
}

// Fig8Row is one Kraken sub-benchmark's overhead.
type Fig8Row struct {
	Name     string  `json:"name"`
	Slowdown float64 `json:"slowdown"`
}

// Figure8 builds the Chrome-scale binary, hardens all writes with
// (Redzone)+(LowFat), and measures per-Kraken-benchmark overhead (§7.3).
// The build and rewrite run once, serially; the Kraken sub-benchmarks fan
// out as pool units.
func (h *Harness) Figure8(fillerFuncs int, scale uint64, w io.Writer) ([]Fig8Row, float64, error) {
	bin, err := kraken.Build(fillerFuncs)
	if err != nil {
		return nil, 0, err
	}
	opt := redfat.Defaults()
	opt.CheckReads = false // §7.3: write protection
	hard, rep, err := redfat.Harden(bin, opt)
	if err != nil {
		return nil, 0, err
	}
	if w != nil {
		fmt.Fprintf(w, "chrome image: text %d bytes, %s\n",
			len(bin.Text().Data), rep.String())
	}
	rows, err := fanOut(h, "figure8", len(kraken.Benchmarks),
		func(i int) string { return kraken.Benchmarks[i] },
		func(i int, reg *telemetry.Registry) (Fig8Row, error) {
			name := kraken.Benchmarks[i]
			input := []uint64{uint64(i), scale}
			base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input, Metrics: reg})
			if err != nil {
				return Fig8Row{}, fmt.Errorf("%s baseline: %w", name, err)
			}
			v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input, Abort: true, Metrics: reg})
			if err != nil {
				return Fig8Row{}, fmt.Errorf("%s hardened: %w", name, err)
			}
			if v.ExitCode != base.ExitCode {
				return Fig8Row{}, fmt.Errorf("%s: checksum mismatch", name)
			}
			return Fig8Row{Name: name,
				Slowdown: float64(v.Cycles) / float64(base.Cycles)}, nil
		})
	if err != nil {
		return nil, 0, err
	}
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = r.Slowdown
	}
	gm := GeoMean(xs)
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "%-22s %6.0f%%\n", r.Name, r.Slowdown*100)
		}
		fmt.Fprintf(w, "%-22s %6.0f%%\n", "Geometric Mean", gm*100)
	}
	return rows, gm, nil
}
