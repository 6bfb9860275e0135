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
	"redfat/internal/profile"
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

	// Slow-down factors vs baseline.
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

// table1Configs returns the instrumentation ladder of Table 1's columns.
// The ladder runs with indirect-flow recovery disabled through +dom so
// the +ind step isolates the recovered-edge benefit (elimination across
// formerly-Unknown boundaries); the later columns inherit recovery on.
func table1Configs(allow profile.AllowList) []redfat.Options {
	base := redfat.Options{LowFat: true, CheckReads: true, SizeCheck: true,
		AllowList: allow, NoIndirect: true}
	unopt := base
	elim := base
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
	return []redfat.Options{unopt, elim, batch, merge, dom, ind, nosize, noreads}
}

// t1nConfigs is the number of Table 1 measurement columns: the eight-step
// instrumentation ladder plus the Memcheck comparison.
const t1nConfigs = 9

// t1configNames labels the Table 1 configuration columns in progress output.
var t1configNames = [t1nConfigs]string{
	"unopt", "+elim", "+batch", "+merge", "+dom", "+ind", "-size", "-reads", "memcheck",
}

// t1prep is the per-benchmark state shared by the seven Table 1
// configuration runs: the built binary, its baseline execution, and the
// phase-1 allow-list.
type t1prep struct {
	bm    *workload.Benchmark
	bin   *relf.Binary
	base  *vm.VM
	allow profile.AllowList
}

// table1Prep builds one benchmark, measures its baseline, and derives the
// allow-list from the train workload (paper methodology, Fig. 5 phase 1).
func table1Prep(bm *workload.Benchmark, scale float64, reg *telemetry.Registry) (*t1prep, error) {
	bm = scaled(bm, scale)
	bin, err := bm.Build()
	if err != nil {
		return nil, err
	}
	base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: bm.RefInput(), Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("%s baseline: %w", bm.Name, err)
	}
	allow, err := allowListFor(bin, bm, reg)
	if err != nil {
		return nil, err
	}
	return &t1prep{bm: bm, bin: bin, base: base, allow: allow}, nil
}

// t1res is one (benchmark × configuration) cell of Table 1.
type t1res struct {
	cycles   uint64
	exitOK   bool
	coverage float64 // config 3 (+merge) only
	errors   int     // config 3 (+merge) only
}

// table1Config measures one configuration column for a prepared
// benchmark: columns 0–7 are the instrumentation ladder, column 8 is the
// Memcheck comparison.
func table1Config(p *t1prep, c int, reg *telemetry.Registry) (t1res, error) {
	if c == t1nConfigs-1 {
		mc, err := memcheck.Run(p.bin, rtlib.RunConfig{Input: p.bm.RefInput(), Metrics: reg})
		if err != nil {
			return t1res{}, fmt.Errorf("%s memcheck: %w", p.bm.Name, err)
		}
		return t1res{cycles: mc.Cycles, exitOK: mc.ExitCode == p.base.ExitCode}, nil
	}
	hard, _, err := redfat.Harden(p.bin, table1Configs(p.allow)[c])
	if err != nil {
		return t1res{}, fmt.Errorf("%s config %d: %w", p.bm.Name, c, err)
	}
	v, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: p.bm.RefInput(), Metrics: reg})
	if err != nil {
		return t1res{}, fmt.Errorf("%s config %d run: %w", p.bm.Name, c, err)
	}
	r := t1res{cycles: v.Cycles, exitOK: v.ExitCode == p.base.ExitCode}
	if c == 3 { // +merge: full checking with per-site reports intact
		r.coverage = rtlib.Coverage(rt)
		r.errors = vm.DistinctErrorSites(v.Errors)
	}
	return r, nil
}

// assembleT1Row folds the nine configuration cells into a table row.
func assembleT1Row(p *t1prep, cells []t1res) *Table1Row {
	row := &Table1Row{Name: p.bm.Name, Lang: p.bm.Lang, ChecksumOK: true,
		BaselineCycles: p.base.Cycles}
	for _, c := range cells {
		if !c.exitOK {
			row.ChecksumOK = false
		}
	}
	slow := func(i int) float64 { return float64(cells[i].cycles) / float64(p.base.Cycles) }
	row.Unopt, row.Elim, row.Batch = slow(0), slow(1), slow(2)
	row.Merge, row.Dom, row.Ind = slow(3), slow(4), slow(5)
	row.NoSize, row.NoReads = slow(6), slow(7)
	row.Memcheck = slow(8)
	row.Coverage = cells[3].coverage
	row.DetectedErrors = cells[3].errors
	return row
}

// Table1Bench runs the full Table 1 pipeline for one benchmark at the
// given workload scale (1.0 = full ref size), serially.
func Table1Bench(bm *workload.Benchmark, scale float64) (*Table1Row, error) {
	p, err := table1Prep(bm, scale, nil)
	if err != nil {
		return nil, err
	}
	cells := make([]t1res, t1nConfigs)
	for c := range cells {
		if cells[c], err = table1Config(p, c, nil); err != nil {
			return nil, err
		}
	}
	return assembleT1Row(p, cells), nil
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

// Table1 runs every benchmark over the harness pool in two fan-out
// stages — per-benchmark preparation (build, baseline, allow-list), then
// the (benchmark × configuration) grid — and renders the table to w
// (nil ok). Rows are assembled in benchmark order regardless of
// completion order, so the output is identical at any pool width. The
// switch-dense marker-built benchmarks ride along after the SPEC set:
// they are where the +ind column separates from +dom (the SPEC binaries
// carry no jump-table declarations, so recovery is a no-op there).
func (h *Harness) Table1(scale float64, w io.Writer) ([]*Table1Row, error) {
	bms := append(workload.All(), workload.SwitchDense()...)
	preps, err := fanOut(h, "table1/prep", len(bms),
		func(i int) string { return bms[i].Name },
		func(i int, reg *telemetry.Registry) (*t1prep, error) {
			return table1Prep(bms[i], scale, reg)
		})
	if err != nil {
		return nil, err
	}
	cells, err := fanOut(h, "table1", len(preps)*t1nConfigs,
		func(i int) string {
			return preps[i/t1nConfigs].bm.Name + "/" + t1configNames[i%t1nConfigs]
		},
		func(i int, reg *telemetry.Registry) (t1res, error) {
			return table1Config(preps[i/t1nConfigs], i%t1nConfigs, reg)
		})
	if err != nil {
		return nil, err
	}
	rows := make([]*Table1Row, len(preps))
	for b := range preps {
		rows[b] = assembleT1Row(preps[b], cells[b*t1nConfigs:(b+1)*t1nConfigs])
	}
	renderTable1(rows, w)
	return rows, nil
}

// renderTable1 writes the per-benchmark rows and the geomean summary row.
func renderTable1(rows []*Table1Row, w io.Writer) {
	if w == nil {
		return
	}
	for _, row := range rows {
		fmt.Fprintf(w, "%-12s %6.1f%% %12d %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %s\n",
			row.Name, row.Coverage*100, row.BaselineCycles,
			row.Unopt, row.Elim, row.Batch, row.Merge, row.Dom, row.Ind,
			row.NoSize, row.NoReads, row.Memcheck, okFlag(row.ChecksumOK))
	}
	fmt.Fprintf(w, "%-12s %6.1f%% %12s %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx %8.2fx\n",
		"geomean", 100*mean(rows, func(r *Table1Row) float64 { return r.Coverage }),
		"",
		geo(rows, func(r *Table1Row) float64 { return r.Unopt }),
		geo(rows, func(r *Table1Row) float64 { return r.Elim }),
		geo(rows, func(r *Table1Row) float64 { return r.Batch }),
		geo(rows, func(r *Table1Row) float64 { return r.Merge }),
		geo(rows, func(r *Table1Row) float64 { return r.Dom }),
		geo(rows, func(r *Table1Row) float64 { return r.Ind }),
		geo(rows, func(r *Table1Row) float64 { return r.NoSize }),
		geo(rows, func(r *Table1Row) float64 { return r.NoReads }),
		geo(rows, func(r *Table1Row) float64 { return r.Memcheck }))
}

func okFlag(ok bool) string {
	if ok {
		return ""
	}
	return "CHECKSUM-MISMATCH"
}

func geo(rows []*Table1Row, f func(*Table1Row) float64) float64 {
	xs := make([]float64, len(rows))
	for i, r := range rows {
		xs[i] = f(r)
	}
	return GeoMean(xs)
}

func mean(rows []*Table1Row, f func(*Table1Row) float64) float64 {
	s := 0.0
	for _, r := range rows {
		s += f(r)
	}
	if len(rows) == 0 {
		return 0
	}
	return s / float64(len(rows))
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
