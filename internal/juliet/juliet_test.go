package juliet_test

import (
	"runtime"
	"testing"

	"redfat/internal/juliet"
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
		run  func() (*vm.VM, error)
	}{
		{"baseline", func() (*vm.VM, error) { return rtlib.RunBaseline(bin, config()) }},
		{"hardened", func() (*vm.VM, error) {
			v, _, err := rtlib.RunHardened(hard, config())
			return v, err
		}},
		{"memcheck", func() (*vm.VM, error) { return memcheck.Run(bin, config()) }},
	} {
		if _, err := r.run(); err != nil { // warm up package-level state
			t.Fatalf("%s: %v", r.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			if _, err := r.run(); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
		}
		runtime.ReadMemStats(&after)
		perRun := (after.TotalAlloc - before.TotalAlloc) / runs
		t.Logf("%s: %d KiB per run", r.name, perRun>>10)
		if perRun > budget {
			t.Errorf("%s run allocates %d KiB, budget %d KiB", r.name, perRun>>10, budget>>10)
		}
	}
}
