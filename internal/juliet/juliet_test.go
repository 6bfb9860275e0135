package juliet_test

import (
	"errors"
	"fmt"
	"runtime"
	"testing"

	"redfat/internal/juliet"
	"redfat/internal/kraken"
	"redfat/internal/memcheck"
	"redfat/internal/obs"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

func TestSuiteSizes(t *testing.T) {
	if n := len(juliet.CVECases()); n != 4 {
		t.Errorf("CVE cases = %d, want 4", n)
	}
	js := juliet.JulietCases()
	if len(js) != 480 || juliet.NumJuliet != 480 {
		t.Errorf("Juliet cases = %d/%d, want 480", len(js), juliet.NumJuliet)
	}
	ids := map[string]bool{}
	for _, c := range js {
		if ids[c.ID] {
			t.Fatalf("duplicate case id %s", c.ID)
		}
		ids[c.ID] = true
	}
}

// runCase returns (redfatDetected, memcheckDetected) for a bad case.
func runCase(t *testing.T, c *juliet.Case) (bool, bool) {
	t.Helper()
	bin, err := c.Build()
	if err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatalf("%s: %v", c.ID, err)
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: juliet.Trigger(c), Abort: true,
	})
	rf := len(v.Errors) > 0
	if _, ok := err.(*vm.MemError); ok {
		rf = true
	} else if err != nil {
		t.Fatalf("%s: hardened run: %v", c.ID, err)
	}

	mv, err := memcheck.Run(bin, rtlib.RunConfig{Input: juliet.Trigger(c), Abort: true})
	mc := len(mv.Errors) > 0
	if _, ok := err.(*vm.MemError); ok {
		mc = true
	} else if err != nil {
		t.Fatalf("%s: memcheck run: %v", c.ID, err)
	}
	return rf, mc
}

func TestCVEDetection(t *testing.T) {
	// Table 2: RedFat 4/4, Memcheck 0/4.
	for _, c := range juliet.CVECases() {
		rf, mc := runCase(t, c)
		if !rf {
			t.Errorf("%s: RedFat missed the non-incremental overflow", c.ID)
		}
		if mc {
			t.Errorf("%s: Memcheck unexpectedly detected the redzone skip", c.ID)
		}
	}
}

func TestJulietSample(t *testing.T) {
	// A representative slice of the 480 (the full sweep runs in the
	// bench harness); every 31st case to cover all flows and sinks.
	cases := juliet.JulietCases()
	for i := 0; i < len(cases); i += 31 {
		c := cases[i]
		rf, mc := runCase(t, c)
		if !rf {
			t.Errorf("%s: RedFat missed", c.ID)
		}
		if mc {
			t.Errorf("%s: Memcheck detected a redzone skip (should be invisible)", c.ID)
		}
	}
}

func TestGoodVariantsClean(t *testing.T) {
	// Good (in-bounds) variants must run clean under full hardening:
	// no false alarms on the Juliet structure itself.
	var cases []*juliet.Case
	cases = append(cases, juliet.CVECases()...)
	js := juliet.JulietCases()
	for i := 0; i < len(js); i += 53 {
		cases = append(cases, js[i])
	}
	for _, c := range cases {
		bin, err := c.BuildGood()
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: %v", c.ID, err)
		}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: juliet.GoodInput(c), Abort: true,
		})
		if err != nil || len(v.Errors) != 0 {
			t.Errorf("%s (good): false alarm: %v %v", c.ID, err, v.Errors)
		}
	}
}

// TestRunSetupAllocBudget guards a run's host set-up cost: the baseline,
// hardened and Memcheck runs of one Juliet good variant (about 20 guest
// instructions each), each with a fresh flight recorder attached as rfvm
// and perfbench attach one, must each allocate at most 64 KiB of Go
// memory per run, averaged over 50 runs. Guest memory is paid for per
// page touched (page tables, 64-page frame lines, growing frame slabs and
// code-page lines) and the flight ring per event recorded, so a short run
// costs tens of KiB even though it maps an 8 MiB stack. The measure is
// runtime.MemStats.TotalAlloc, which is deterministic enough for tier-1,
// unlike wall time.
func TestRunSetupAllocBudget(t *testing.T) {
	const runs, budget = 50, 64 << 10
	c := juliet.JulietCases()[0]
	bin, err := c.BuildGood()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	config := func() rtlib.RunConfig {
		return rtlib.RunConfig{Input: juliet.GoodInput(c), Abort: true, Flight: obs.NewFlight(0)}
	}
	for _, r := range []struct {
		name string
		run  func() error
	}{
		{"baseline", func() error { _, err := rtlib.RunBaseline(bin, config()); return err }},
		{"hardened", func() error { _, _, err := rtlib.RunHardened(hard, config()); return err }},
		{"memcheck", func() error { _, err := memcheck.Run(bin, config()); return err }},
	} {
		perRun := allocPerRun(t, r.name, runs, r.run)
		t.Logf("%s: %d KiB per run", r.name, perRun>>10)
		if perRun > budget {
			t.Errorf("%s run allocates %d KiB, budget %d KiB", r.name, perRun>>10, budget>>10)
		}
	}
}

// allocPerRun returns the Go memory one call of run allocates, averaged
// over runs calls that follow one warm-up call.
func allocPerRun(t *testing.T, name string, runs int, run func() error) uint64 {
	t.Helper()
	if err := run(); err != nil { // warm up package-level state
		t.Fatalf("%s: %v", name, err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if err := run(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestChromeRunSetupAllocBudget holds a run's set-up cost to what the run
// touches rather than to the size of the image it loads. It makes
// one-cycle runs, each with a fresh flight recorder, on the Chrome-like
// image at 2,000 and at 20,000 fillers, hardened write-only as in §7.3.
// Image pages are filled on first touch and check plans compiled on first
// execution, so the baseline set-up must match at both sizes within
// 8 KiB, and the hardened set-up may grow by at most 96 B per added check
// site: the site's Checks record, SiteStat and plan slot, which Runtime
// exports per site.
func TestChromeRunSetupAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("hardens the 20,000-filler image")
	}
	const (
		runs       = 10
		baseSlack  = 8 << 10
		perSiteMax = 96
	)
	type image struct {
		sites      int
		base, hard uint64 // set-up bytes per run
	}
	var imgs []image
	for _, fillers := range []int{2000, 20000} {
		bin, err := kraken.Build(fillers)
		if err != nil {
			t.Fatal(err)
		}
		opt := redfat.Defaults()
		opt.CheckReads = false
		hard, _, err := redfat.Harden(bin, opt)
		if err != nil {
			t.Fatal(err)
		}
		sites, err := rtlib.SitesFrom(hard)
		if err != nil {
			t.Fatal(err)
		}
		config := rtlib.RunConfig{Input: []uint64{0, 5000}, MaxCycles: 1}
		oneCycle := func(_ *vm.VM, err error) error {
			var budget *vm.CycleLimitError
			if !errors.As(err, &budget) {
				return fmt.Errorf("one-cycle run ended with %v, want a cycle-limit abort", err)
			}
			return nil
		}
		img := image{sites: len(sites)}
		img.base = allocPerRun(t, "baseline", runs, func() error {
			config.Flight = obs.NewFlight(0)
			return oneCycle(rtlib.RunBaseline(bin, config))
		})
		img.hard = allocPerRun(t, "hardened", runs, func() error {
			config.Flight = obs.NewFlight(0)
			v, _, err := rtlib.RunHardened(hard, config)
			return oneCycle(v, err)
		})
		t.Logf("%d fillers, %d sites: baseline %d KiB, hardened %d KiB per run",
			fillers, img.sites, img.base>>10, img.hard>>10)
		imgs = append(imgs, img)
	}
	small, large := imgs[0], imgs[1]
	if d := int64(large.base) - int64(small.base); d > baseSlack || d < -baseSlack {
		t.Errorf("baseline set-up moves by %d B from 2,000 to 20,000 fillers, budget ±%d B", d, baseSlack)
	}
	if d, n := int64(large.hard)-int64(small.hard), int64(large.sites-small.sites); d > perSiteMax*n {
		t.Errorf("hardened set-up grows by %d B over %d added sites (%.1f B/site), budget %d B/site",
			d, n, float64(d)/float64(n), perSiteMax)
	}
}
