package bench_test

import (
	"strings"
	"testing"

	"redfat/internal/bench"
	"redfat/internal/workload"
)

func TestGeoMean(t *testing.T) {
	if g := bench.GeoMean([]float64{2, 8}); g < 3.99 || g > 4.01 {
		t.Errorf("GeoMean(2,8) = %v", g)
	}
	if g := bench.GeoMean(nil); g != 0 {
		t.Errorf("GeoMean(nil) = %v", g)
	}
	if g := bench.GeoMean([]float64{0, -1, 3}); g < 2.99 || g > 3.01 {
		t.Errorf("GeoMean with junk = %v", g)
	}
}

func TestTable1SingleBenchmark(t *testing.T) {
	row, err := bench.Table1Bench(workload.ByName("libquantum"), 0.03)
	if err != nil {
		t.Fatal(err)
	}
	if !row.ChecksumOK {
		t.Error("checksum mismatch")
	}
	// The optimization ladder must be monotone non-increasing and the
	// ordering of Table 1 must hold: unopt ≥ elim ≥ batch ≥ merge ≥
	// dom ≥ ind ≥ nosize ≥ noreads > 1. (libquantum carries no jump
	// tables, so +ind must exactly match +dom — pinned separately.)
	seq := []float64{row.Unopt, row.Elim, row.Batch, row.Merge, row.Dom, row.Ind, row.NoSize, row.NoReads}
	for i := 1; i < len(seq); i++ {
		if seq[i] > seq[i-1]*1.02 { // tiny tolerance
			t.Errorf("optimization step %d regressed: %v", i, seq)
		}
	}
	if row.NoReads <= 1.0 {
		t.Errorf("write-only slowdown %.2f ≤ 1", row.NoReads)
	}
	if row.Memcheck <= row.NoSize {
		t.Errorf("Memcheck (%.2fx) not slower than RedFat -size (%.2fx)",
			row.Memcheck, row.NoSize)
	}
	if row.Coverage < 0.9 {
		t.Errorf("libquantum coverage %.2f, want ≈1 (ungated)", row.Coverage)
	}
	if row.Ind != row.Dom {
		t.Errorf("+ind (%.4fx) differs from +dom (%.4fx) on a non-marker binary", row.Ind, row.Dom)
	}
}

// TestTable1SwitchDense pins the column the recovery adds: on a
// marker-built benchmark the +ind step must strictly beat +dom (the
// recovered edges unlock dominated-check elimination inside the
// dispatch loop) while the checksum stays intact.
func TestTable1SwitchDense(t *testing.T) {
	row, err := bench.Table1Bench(workload.ByName("interp"), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if !row.ChecksumOK {
		t.Error("checksum mismatch")
	}
	if row.Ind >= row.Dom {
		t.Errorf("+ind (%.4fx) did not beat +dom (%.4fx) on the switch-dense interpreter",
			row.Ind, row.Dom)
	}
}

func TestIndirectSweep(t *testing.T) {
	rows, err := (&bench.Harness{}).IndirectSweep(nil, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	blocked, prod := rows[1], rows[3]
	if !blocked.NoIndirect || !blocked.ElimDom {
		t.Fatalf("row 1 is not the recovery-off/dom configuration: %+v", blocked)
	}
	if prod.NoIndirect || !prod.ElimDom {
		t.Fatalf("last row is not the production configuration: %+v", prod)
	}
	// Recovery must claim edges, unlock eliminations the Unknown frontier
	// blocked, and not cost guest cycles.
	if blocked.Resolved != 0 {
		t.Errorf("recovery-off rows claim %d resolved sites, want 0", blocked.Resolved)
	}
	if prod.Resolved == 0 {
		t.Error("production rows resolved no indirect sites on the switch-dense suite")
	}
	if prod.Eliminated <= blocked.Eliminated {
		t.Errorf("recovery unlocked no eliminations: noind=%d ind=%d",
			blocked.Eliminated, prod.Eliminated)
	}
	if prod.TotalCycles > blocked.TotalCycles {
		t.Errorf("recovery cost cycles: noind=%d ind=%d", blocked.TotalCycles, prod.TotalCycles)
	}
}

func TestDetectedErrors(t *testing.T) {
	row, err := bench.Table1Bench(workload.ByName("calculix"), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if row.DetectedErrors < 4 {
		t.Errorf("calculix detected errors = %d, want ≥4", row.DetectedErrors)
	}
	row, err = bench.Table1Bench(workload.ByName("wrf"), 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if row.DetectedErrors < 1 {
		t.Errorf("wrf detected errors = %d, want ≥1", row.DetectedErrors)
	}
}

func TestFalsePositiveCountsMatchPaper(t *testing.T) {
	rows, err := (&bench.Harness{}).FalsePositives(0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Paper §7.1: perlbench 1, gcc 14, gobmk 1, povray 1, bwaves 5,
	// gromacs 3, GemsFDTD 32, wrf 26, calculix 2.
	want := map[string]int{
		"perlbench": 1, "gcc": 14, "gobmk": 1, "povray": 1, "bwaves": 5,
		"gromacs": 3, "GemsFDTD": 32, "wrf": 26, "calculix": 2,
	}
	got := map[string]int{}
	for _, r := range rows {
		got[r.Name] = r.Count
	}
	for name, n := range want {
		if got[name] != n {
			t.Errorf("%s: %d false positives, paper reports %d", name, got[name], n)
		}
	}
	if len(rows) != len(want) {
		t.Errorf("FP rows = %d benchmarks, want %d", len(rows), len(want))
	}
}

func TestTable2(t *testing.T) {
	if testing.Short() {
		t.Skip("480-case sweep")
	}
	var sb strings.Builder
	rows, err := (&bench.Harness{}).Table2(&sb)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("rows = %d, want 9", len(rows))
	}
	for _, r := range rows {
		if r.RedFat != r.Total {
			t.Errorf("%s: RedFat %d/%d, want 100%%", r.ID, r.RedFat, r.Total)
		}
		// Non-incremental overflows (CVE + Juliet rows) skip the redzone:
		// Memcheck misses all of them. The libc rows overflow contiguously
		// through an interposed routine: Memcheck's mem* wrappers catch
		// those, but it does not wrap the string routines, so the strcpy
		// overflow is a RedFat-only detection.
		wantMC := 0
		if strings.HasPrefix(r.ID, "LIBC-mem") {
			wantMC = r.Total
		}
		if r.Memcheck != wantMC {
			t.Errorf("%s: Memcheck %d/%d, want %d", r.ID, r.Memcheck, r.Total, wantMC)
		}
	}
	if !strings.Contains(sb.String(), "Juliet") {
		t.Error("rendering missing Juliet row")
	}
	if !strings.Contains(sb.String(), "LIBC-strcpy-write") {
		t.Error("rendering missing libc rows")
	}
}

func TestFigure8(t *testing.T) {
	rows, gm, err := (&bench.Harness{}).Figure8(512, 120, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 14 {
		t.Fatalf("rows = %d, want 14", len(rows))
	}
	if gm < 1.02 || gm > 3.0 {
		t.Errorf("Kraken geomean %.2fx outside the plausible write-only band", gm)
	}
	for _, r := range rows {
		if r.Slowdown < 1.0 {
			t.Errorf("%s: slowdown %.2f < 1", r.Name, r.Slowdown)
		}
	}
}

func TestTactics(t *testing.T) {
	rows, err := (&bench.Harness{}).Tactics(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 30 { // 29 SPEC + chrome
		t.Fatalf("rows = %d, want 30", len(rows))
	}
	for _, r := range rows {
		if r.Checks == 0 {
			t.Errorf("%s: no checks", r.Name)
		}
		if r.T1+r.T2+r.T3 == 0 {
			t.Errorf("%s: no patches recorded", r.Name)
		}
	}
}

func TestBatchSweep(t *testing.T) {
	rows, err := (&bench.Harness{}).BatchSweep("povray", 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Wider batches must not be slower than no batching.
	if rows[len(rows)-1].Slowdown > rows[0].Slowdown*1.02 {
		t.Errorf("batching made things worse: %v", rows)
	}
}

func TestClobberSweep(t *testing.T) {
	rows, err := (&bench.Harness{}).ClobberSweep("sjeng", 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Slowdown > rows[0].Slowdown*1.01 {
		t.Errorf("clobber specialization did not help: %+v", rows)
	}
}

func TestDataflowSweep(t *testing.T) {
	names := []string{"libquantum", "povray", "calculix", "sjeng"}
	rows, err := (&bench.Harness{}).DataflowSweep(names, 0.02, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	// The production configuration (global liveness + dominator
	// elimination, last row) must beat the pre-engine configuration
	// (block-local liveness, no elimination, first row) on total cycles.
	before, after := rows[0], rows[len(rows)-1]
	if before.ElimDom || !before.LocalLiveness {
		t.Fatalf("row 0 is not the pre-engine configuration: %+v", before)
	}
	if !after.ElimDom || after.LocalLiveness {
		t.Fatalf("last row is not the production configuration: %+v", after)
	}
	if after.TotalCycles >= before.TotalCycles {
		t.Errorf("dataflow engine did not reduce cycles: before=%d after=%d",
			before.TotalCycles, after.TotalCycles)
	}
}

func TestFuzzBoostStudy(t *testing.T) {
	budgets := []int{1, 120}
	if testing.Short() {
		budgets = []int{1, 30} // the race-detector run: a smaller budget still shows the trend
	}
	rows, err := (&bench.Harness{}).FuzzBoostStudy("h264ref", budgets, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[1].Coverage <= rows[0].Coverage {
		t.Errorf("fuzzing did not raise coverage: %+v", rows)
	}
}

func TestTable2Extended(t *testing.T) {
	rows, err := (&bench.Harness{}).Table2Extended(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.RedFat != r.Total {
			t.Errorf("%s: RedFat %d/%d, want all detected", r.ID, r.RedFat, r.Total)
		}
	}
}
