package workload_test

import (
	"testing"

	"redfat/internal/memcheck"
	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/workload"
)

func TestRegistry(t *testing.T) {
	all := workload.All()
	if len(all) != 29 {
		t.Fatalf("benchmark count = %d, want 29 (full SPEC CPU2006)", len(all))
	}
	seen := map[string]bool{}
	for _, bm := range all {
		if seen[bm.Name] {
			t.Errorf("duplicate benchmark %q", bm.Name)
		}
		seen[bm.Name] = true
		if bm.TrainScale == 0 || bm.RefScale <= bm.TrainScale {
			t.Errorf("%s: bad scales %d/%d", bm.Name, bm.TrainScale, bm.RefScale)
		}
	}
	// The paper's specific planted properties.
	checks := map[string]struct{ fps, bugs int }{
		"perlbench": {1, 0}, "gcc": {14, 0}, "gobmk": {1, 0},
		"povray": {1, 0}, "bwaves": {5, 0}, "gromacs": {3, 0},
		"GemsFDTD": {32, 0}, "wrf": {26, 1}, "calculix": {2, 4},
		"bzip2": {0, 0}, "mcf": {0, 0},
	}
	for name, want := range checks {
		bm := workload.ByName(name)
		if bm == nil {
			t.Fatalf("benchmark %q missing", name)
		}
		if bm.PlantedFPs != want.fps || bm.PlantedBugs != want.bugs {
			t.Errorf("%s: planted fps=%d bugs=%d, want %d/%d",
				name, bm.PlantedFPs, bm.PlantedBugs, want.fps, want.bugs)
		}
	}
	if workload.ByName("nope") != nil {
		t.Error("ByName(nope) != nil")
	}
}

func TestAllBuild(t *testing.T) {
	for _, bm := range workload.All() {
		bin, err := bm.Build()
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if !bin.Stripped {
			t.Errorf("%s: not stripped", bm.Name)
		}
		if bin.Text() == nil || len(bin.Text().Data) < 100 {
			t.Errorf("%s: implausibly small text", bm.Name)
		}
	}
}

// small returns a scaled-down copy for fast tests.
func small(bm *workload.Benchmark) *workload.Benchmark {
	cp := *bm
	cp.TrainScale = 300
	cp.RefScale = 1500
	return &cp
}

func TestAllRunBaseline(t *testing.T) {
	for _, bm := range workload.All() {
		bm := small(bm)
		bin, err := bm.Build()
		if err != nil {
			t.Fatal(err)
		}
		v, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: bm.RefInput()})
		if err != nil {
			t.Fatalf("%s: %v", bm.Name, err)
		}
		if v.Insts < 1000 {
			t.Errorf("%s: only %d instructions executed", bm.Name, v.Insts)
		}
	}
}

// TestDifferentialChecksums is the central correctness property of the
// workload suite: for every benchmark, the exit checksum is identical
// under the baseline allocator, the RedFat-hardened binary, and the
// Memcheck model (memory-error reports aside).
func TestDifferentialChecksums(t *testing.T) {
	for _, bm := range workload.All() {
		bm := small(bm)
		t.Run(bm.Name, func(t *testing.T) {
			bin, err := bm.Build()
			if err != nil {
				t.Fatal(err)
			}
			input := bm.RefInput()
			base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			hard, _, err := redfat.Harden(bin, redfat.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			hv, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input})
			if err != nil {
				t.Fatalf("hardened: %v", err)
			}
			if hv.ExitCode != base.ExitCode {
				t.Errorf("hardened checksum %#x != baseline %#x",
					hv.ExitCode, base.ExitCode)
			}
			mc, err := memcheck.Run(bin, rtlib.RunConfig{Input: input})
			if err != nil {
				t.Fatalf("memcheck: %v", err)
			}
			if mc.ExitCode != base.ExitCode {
				t.Errorf("memcheck checksum %#x != baseline %#x",
					mc.ExitCode, base.ExitCode)
			}
		})
	}
}

func TestCalculixBugsDetected(t *testing.T) {
	bm := small(workload.ByName("calculix"))
	bin, err := bm.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := redfat.Defaults()
	// Per-site attribution: the planted reads are identical operands in
	// a dominating chain, so ElimDom would (correctly) coalesce their
	// reports onto the first site. Count them un-eliminated, the same
	// way TestFalsePositiveCounts disables merging for 1:1 attribution.
	opt.ElimDom = false
	hard, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput()})
	if err != nil {
		t.Fatal(err)
	}
	pcs := map[uint64]bool{}
	for _, e := range v.Errors {
		pcs[e.PC] = true
	}
	if len(pcs) < 4 {
		t.Errorf("calculix: %d distinct error sites, want ≥4 (the planted array[-1] reads)", len(pcs))
	}
}

func TestFalsePositiveCounts(t *testing.T) {
	// Under naive full hardening (no allow-list, unmerged so sites map
	// 1:1 to operands), each benchmark reports exactly its planted
	// anti-idiom count as distinct false-positive sites (§7.1).
	for _, name := range []string{"gcc", "gromacs", "perlbench"} {
		bm := small(workload.ByName(name))
		bin, err := bm.Build()
		if err != nil {
			t.Fatal(err)
		}
		opt := redfat.Defaults()
		opt.Merge = false
		hard, _, err := redfat.Harden(bin, opt)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput()})
		if err != nil {
			t.Fatal(err)
		}
		pcs := map[uint64]bool{}
		for _, e := range v.Errors {
			pcs[e.PC] = true
		}
		if len(pcs) != bm.PlantedFPs+bm.PlantedBugs {
			t.Errorf("%s: %d distinct FP sites, want %d",
				name, len(pcs), bm.PlantedFPs+bm.PlantedBugs)
		}
	}
}

func TestCoverageVariesWithGating(t *testing.T) {
	// h264ref (heavily ref-gated) must end with much lower coverage than
	// libquantum (ungated) after the train-profiled allow-list.
	cov := func(name string) float64 {
		bm := small(workload.ByName(name))
		bin, err := bm.Build()
		if err != nil {
			t.Fatal(err)
		}
		hard, _, _, err := profile.Run(bin,
			[]rtlib.RunConfig{{Input: bm.TrainInput()}}, redfat.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		_, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput()})
		if err != nil {
			t.Fatal(err)
		}
		return rtlib.Coverage(rt)
	}
	low := cov("h264ref")
	high := cov("libquantum")
	if high < 0.95 {
		t.Errorf("libquantum coverage = %.2f, want ≈1", high)
	}
	if low >= high-0.2 {
		t.Errorf("h264ref coverage %.2f not clearly below libquantum %.2f", low, high)
	}
}
