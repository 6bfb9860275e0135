// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§7), plus micro-benchmarks of the substrate.
//
//	go test -bench=. -benchmem
//
// Custom metrics report the paper's headline numbers:
//
//	BenchmarkTable1     slow-down geomeans per configuration column
//	BenchmarkTable1FalsePositives  total FP count (paper: 84 across 9 benchmarks)
//	BenchmarkTable2     detection rates (paper: RedFat 484/484, Memcheck 0/484)
//	BenchmarkFigure8    Kraken write-protection geomean (paper: ≈1.28×)
//	BenchmarkAblation*  patch-tactic and batch-width ablations
//
// The workload scale is reduced so a full -bench sweep completes in
// minutes; cmd/rfbench runs the same experiments at full scale.
package redfat_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"redfat"
	"redfat/internal/bench"
	"redfat/internal/juliet"
	"redfat/internal/kraken"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

const table1Scale = 0.02

// BenchmarkTable1 regenerates paper Table 1: the full SPEC CPU2006-like
// suite through every instrumentation configuration plus Memcheck.
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := (&bench.Harness{}).Table1(table1Scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		s := bench.Summarize(rows)
		b.ReportMetric(s.Unopt, "unopt-x")
		b.ReportMetric(s.Elim, "elim-x")
		b.ReportMetric(s.Batch, "batch-x")
		b.ReportMetric(s.Merge, "merge-x")
		b.ReportMetric(s.Dom, "dom-x")
		b.ReportMetric(s.NoSize, "nosize-x")
		b.ReportMetric(s.NoReads, "noreads-x")
		b.ReportMetric(s.Memcheck, "memcheck-x")
		b.ReportMetric(100*s.MeanCoverage, "coverage-%")
	}
}

// BenchmarkTable1PerBenchmark runs each SPEC-like benchmark's fully
// optimized hardened configuration as its own sub-benchmark.
func BenchmarkTable1PerBenchmark(b *testing.B) {
	for _, bm := range workload.All() {
		bm := bm
		b.Run(bm.Name, func(b *testing.B) {
			cp := *bm
			cp.RefScale = 2000
			cp.TrainScale = 400
			bin, err := cp.Build()
			if err != nil {
				b.Fatal(err)
			}
			hard, _, err := redfat.Harden(bin, redfat.Defaults())
			if err != nil {
				b.Fatal(err)
			}
			input := cp.RefInput()
			b.ResetTimer()
			var cycles uint64
			for i := 0; i < b.N; i++ {
				res, err := redfat.Run(hard, redfat.RunOptions{Input: input, Hardened: true})
				if err != nil {
					b.Fatal(err)
				}
				cycles = res.Cycles
			}
			b.ReportMetric(float64(cycles), "guest-cycles")
		})
	}
}

// BenchmarkTable1DetectedErrors reproduces the §7.1 "Detected errors"
// result: the planted calculix and wrf out-of-bounds reads.
func BenchmarkTable1DetectedErrors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		total := 0
		for _, name := range []string{"calculix", "wrf"} {
			row, err := bench.Table1Bench(workload.ByName(name), table1Scale)
			if err != nil {
				b.Fatal(err)
			}
			total += row.DetectedErrors
		}
		if i == 0 {
			b.ReportMetric(float64(total), "detected-errors")
		}
	}
}

// BenchmarkTable1FalsePositives reproduces the §7.1 false-positive counts
// under full checking without the allow-list (paper: 85 sites across 9
// benchmarks: perlbench 1, gcc 14, gobmk 1, povray 1, bwaves 5,
// gromacs 3, GemsFDTD 32, wrf 26, calculix 2).
func BenchmarkTable1FalsePositives(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := (&bench.Harness{}).FalsePositives(table1Scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		total := 0
		for _, r := range rows {
			total += r.Count
		}
		b.ReportMetric(float64(total), "false-positives")
	}
}

// BenchmarkTable2 regenerates paper Table 2: the four CVE models plus the
// 480-case Juliet CWE-122 suite under RedFat and Memcheck.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := (&bench.Harness{}).Table2(nil)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		var rf, mc, total int
		for _, r := range rows {
			rf += r.RedFat
			mc += r.Memcheck
			total += r.Total
		}
		b.ReportMetric(float64(rf)/float64(total)*100, "redfat-detect-%")
		b.ReportMetric(float64(mc)/float64(total)*100, "memcheck-detect-%")
	}
}

// BenchmarkTable2Juliet measures a single Juliet case end to end
// (build + harden + both runs).
func BenchmarkTable2Juliet(b *testing.B) {
	cases := juliet.JulietCases()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		bin, err := c.Build()
		if err != nil {
			b.Fatal(err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := redfat.Run(hard, redfat.RunOptions{
			Input: juliet.Trigger(c), Hardened: true,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure8 regenerates paper Figure 8: Chrome-scale write-only
// hardening measured with the 14 Kraken sub-benchmarks.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, gm, err := (&bench.Harness{}).Figure8(2048, 400, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(gm*100, "kraken-geomean-%")
		}
	}
}

// BenchmarkAblationTactics reports the patch-tactic mix across the whole
// binary population (the rewriting-substrate ablation from DESIGN.md).
func BenchmarkAblationTactics(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := (&bench.Harness{}).Tactics(1024, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i != 0 {
			continue
		}
		var t1, t2, t3 int
		for _, r := range rows {
			t1 += r.T1
			t2 += r.T2
			t3 += r.T3
		}
		total := float64(t1 + t2 + t3)
		b.ReportMetric(float64(t1)/total*100, "T1-%")
		b.ReportMetric(float64(t2)/total*100, "T2-%")
		b.ReportMetric(float64(t3)/total*100, "T3-%")
	}
}

// BenchmarkAblationBatchWidth sweeps the maximum batch width (check
// batching ablation, paper §6).
func BenchmarkAblationBatchWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := (&bench.Harness{}).BatchSweep("povray", table1Scale, nil)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].Slowdown, "width1-x")
			b.ReportMetric(rows[len(rows)-1].Slowdown, "width16-x")
		}
	}
}

// BenchmarkHardenThroughput measures static rewriting speed on the
// Chrome-scale binary (bytes of text instrumented per second).
func BenchmarkHardenThroughput(b *testing.B) {
	bin, err := buildChrome(4096)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := redfat.Harden(bin, redfat.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifyThroughput measures translation validation speed on the
// same Chrome-scale binary and its hardened image (bytes of original
// text validated per second).
func BenchmarkVerifyThroughput(b *testing.B) {
	bin, err := buildChrome(4096)
	if err != nil {
		b.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(bin.Text().Data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := redfat.VerifyHardened(bin, hard)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK() {
			b.Fatalf("validation found %d violations", len(rep.Violations))
		}
	}
}

// BenchmarkVMDispatch measures VM dispatch (block cache, chains and the
// superblock tier, as runs ship) on an uninstrumented workload, in guest
// MIPS and guest instructions per run.
func BenchmarkVMDispatch(b *testing.B) {
	bm := workload.ByName("bzip2")
	cp := *bm
	cp.RefScale = 20000
	bin, err := cp.Build()
	if err != nil {
		b.Fatal(err)
	}
	input := cp.RefInput()
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := redfat.Run(bin, redfat.RunOptions{Input: input})
		if err != nil {
			b.Fatal(err)
		}
		insts = res.Insts
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(insts)*float64(b.N)/secs/1e6, "guest-MIPS")
	}
	b.ReportMetric(float64(insts), "guest-insts/op")
}

// BenchmarkTable1Parallel measures the experiment harness's wall-clock
// scaling over the worker pool: the full Table 1 pipeline serially and at
// -parallel 4. The rendered rows are byte-identical at any width; only
// elapsed time moves (and only on multi-core hosts).
func BenchmarkTable1Parallel(b *testing.B) {
	for _, width := range []int{1, 4} {
		b.Run(fmt.Sprintf("parallel-%d", width), func(b *testing.B) {
			h := &bench.Harness{Parallel: width}
			for i := 0; i < b.N; i++ {
				if _, err := h.Table1(table1Scale, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkProfileWorkflow measures the full two-phase Fig. 5 pipeline.
func BenchmarkProfileWorkflow(b *testing.B) {
	bm := workload.ByName("gcc")
	cp := *bm
	cp.RefScale = 2000
	cp.TrainScale = 400
	bin, err := cp.Build()
	if err != nil {
		b.Fatal(err)
	}
	suite := [][]uint64{cp.TrainInput()}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := redfat.ProfileAndHarden(bin, suite, redfat.Defaults()); err != nil {
			b.Fatal(err)
		}
	}
}

func buildChrome(fillers int) (*redfat.Binary, error) {
	return kraken.Build(fillers)
}

// BenchmarkMemcheckRun measures the Memcheck model's execution speed for
// comparison with the hardened runs.
func BenchmarkMemcheckRun(b *testing.B) {
	bm := workload.ByName("mcf")
	cp := *bm
	cp.RefScale = 2000
	bin, err := cp.Build()
	if err != nil {
		b.Fatal(err)
	}
	input := cp.RefInput()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := redfat.Run(bin, redfat.RunOptions{Input: input, Memcheck: true}); err != nil {
			b.Fatal(err)
		}
	}
}

// chromeSetupImages builds the 20,000-filler Chrome-like image and its
// write-only hardening (§7.3), the images whose one-cycle runs measure a
// Chrome-scale run's set-up.
func chromeSetupImages(tb testing.TB) (chrome, hard *redfat.Binary) {
	tb.Helper()
	chrome, err := buildChrome(20000)
	if err != nil {
		tb.Fatal(err)
	}
	opt := redfat.Defaults()
	opt.CheckReads = false
	hard, _, err = redfat.Harden(chrome, opt)
	if err != nil {
		tb.Fatal(err)
	}
	return chrome, hard
}

// chromeSetupInput is the Kraken input of the one-cycle Chrome-scale runs.
var chromeSetupInput = []uint64{0, 5000}

// BenchmarkRunSetup measures runs short enough that their set-up
// dominates: as in Table 2, one Juliet good variant (about 20 guest
// instructions) under RedFat and under Memcheck, and one-cycle runs of
// the 20,000-filler Chrome-like image, baseline and hardened write-only
// as in §7.3. Each run has a fresh flight recorder attached, as rfvm and
// perfbench attach one. Its B/op is a run's Go set-up allocation, which
// TestRunSetupAllocBudget, TestChromeRunSetupAllocBudget and
// TestRunReportsOnlyExecutedSites bound.
func BenchmarkRunSetup(b *testing.B) {
	c := juliet.JulietCases()[0]
	bin, err := c.BuildGood()
	if err != nil {
		b.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		b.Fatal(err)
	}
	chrome, chromeHard := chromeSetupImages(b)
	input, kraken := juliet.GoodInput(c), chromeSetupInput
	for _, r := range []struct {
		name string
		bin  *redfat.Binary
		opts redfat.RunOptions
	}{
		{"redfat", hard, redfat.RunOptions{Input: input, Abort: true, Hardened: true}},
		{"memcheck", bin, redfat.RunOptions{Input: input, Abort: true, Memcheck: true}},
		{"chrome-baseline", chrome, redfat.RunOptions{Input: kraken, MaxCycles: 1}},
		{"chrome-redfat", chromeHard, redfat.RunOptions{Input: kraken, MaxCycles: 1, Hardened: true}},
	} {
		b.Run(r.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				opts := r.opts
				opts.Flight = redfat.NewFlight(0)
				var limit *vm.CycleLimitError
				if _, err := redfat.Run(r.bin, opts); err != nil && !errors.As(err, &limit) {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestRunReportsOnlyExecutedSites holds what redfat.Run adds to a
// hardened run's set-up to what the run executed. A one-cycle run of the
// write-only hardened Chrome-like image executes none of its 15,018 check
// sites, so it may allocate at most 64 KiB more through redfat.Run than
// through rtlib.RunHardened: its Result lists no CheckStat.
func TestRunReportsOnlyExecutedSites(t *testing.T) {
	if testing.Short() {
		t.Skip("hardens the 20,000-filler image")
	}
	const runs, slack = 5, 64 << 10
	_, hard := chromeSetupImages(t)
	config := redfat.RunOptions{Input: chromeSetupInput, MaxCycles: 1, Hardened: true}
	// perRun averages the Go memory one call of run allocates over runs
	// calls that follow one warm-up call.
	perRun := func(run func() error) uint64 {
		var limit *vm.CycleLimitError
		var before, after runtime.MemStats
		for i := -1; i < runs; i++ {
			if i == 0 {
				runtime.ReadMemStats(&before)
			}
			if err := run(); !errors.As(err, &limit) {
				t.Fatalf("one-cycle run: %v", err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / runs
	}
	direct := perRun(func() error { _, _, err := rtlib.RunHardened(hard, config); return err })
	var res *redfat.Result
	viaRun := perRun(func() (err error) { res, err = redfat.Run(hard, config); return err })
	t.Logf("rtlib.RunHardened %d KiB, redfat.Run %d KiB per run", direct>>10, viaRun>>10)
	if viaRun > direct+slack {
		t.Errorf("redfat.Run allocates %d KiB per run, %d KiB more than rtlib.RunHardened; budget %d KiB",
			viaRun>>10, (viaRun-direct)>>10, slack>>10)
	}
	if len(res.Checks) != 0 {
		t.Errorf("a one-cycle run reports %d check sites, want none: it executed no check", len(res.Checks))
	}
}

// BenchmarkAllocators compares the baseline and RedFat allocators through
// the churn workload.
func BenchmarkAllocators(b *testing.B) {
	bm := workload.ByName("xalancbmk")
	cp := *bm
	cp.RefScale = 2000
	bin, err := cp.Build()
	if err != nil {
		b.Fatal(err)
	}
	input := cp.RefInput()
	hard, _, err := redfat.Harden(bin, redfat.Options{}) // no checks: allocator cost only
	if err != nil {
		b.Fatal(err)
	}
	b.Run("glibc-style", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := redfat.Run(bin, redfat.RunOptions{Input: input}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("lowfat-redzone", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := redfat.Run(hard, redfat.RunOptions{Input: input, Hardened: true}); err != nil {
				b.Fatal(err)
			}
		}
	})
}
