package fuzz_test

import (
	"testing"

	"redfat/internal/fuzz"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/workload"
)

func TestBoostIncreasesCoverage(t *testing.T) {
	// h264ref's train input exercises only one of four kernels; the
	// fuzzer should discover flag bits that unlock more (the same effect
	// as running AFL during the profiling phase, paper §5).
	bm := workload.ByName("h264ref")
	cp := *bm
	cp.TrainScale = 200
	cp.RefScale = 1000
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := redfat.Defaults()
	opt.Profile = true
	opt.Merge = false
	prof, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}

	res, err := fuzz.Boost(prof, [][]uint64{cp.TrainInput()}, fuzz.Options{
		MaxRuns: 150, MaxCycles: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.SitesCovered <= res.SeedSites {
		t.Errorf("fuzzing found no new sites: %d seed, %d total",
			res.SeedSites, res.SitesCovered)
	}
	if res.Runs > 150 {
		t.Errorf("budget exceeded: %d runs", res.Runs)
	}
	if len(res.Corpus) < 2 {
		t.Errorf("corpus did not grow: %d entries", len(res.Corpus))
	}

	// The boosted allow-list yields higher production coverage than the
	// seed-only allow-list.
	seedOnly, err := fuzz.Boost(prof, [][]uint64{cp.TrainInput()}, fuzz.Options{
		MaxRuns: 1, MaxCycles: 20_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	covWith := productionCoverage(t, &cp, res.Profiler.AllowList())
	covWithout := productionCoverage(t, &cp, seedOnly.Profiler.AllowList())
	if covWith <= covWithout {
		t.Errorf("boosted coverage %.2f not above seed-only %.2f", covWith, covWithout)
	}
}

func productionCoverage(t *testing.T, bm *workload.Benchmark, allow map[uint64]bool) float64 {
	t.Helper()
	bin, err := bm.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := redfat.Defaults()
	opt.AllowList = allow
	hard, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	_, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput()})
	if err != nil {
		t.Fatal(err)
	}
	return rtlib.Coverage(rt)
}

func TestBoostDeterministic(t *testing.T) {
	bm := workload.ByName("mcf")
	cp := *bm
	cp.TrainScale = 100
	cp.RefScale = 500
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := redfat.Defaults()
	opt.Profile = true
	prof, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	r1, err := fuzz.Boost(prof, [][]uint64{cp.TrainInput()},
		fuzz.Options{MaxRuns: 40, Seed: 7, MaxCycles: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := fuzz.Boost(prof, [][]uint64{cp.TrainInput()},
		fuzz.Options{MaxRuns: 40, Seed: 7, MaxCycles: 10_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if r1.SitesCovered != r2.SitesCovered || len(r1.Corpus) != len(r2.Corpus) {
		t.Errorf("campaign not deterministic: %+v vs %+v", r1, r2)
	}
}

func TestBoostEmptySeedsSafe(t *testing.T) {
	bm := workload.ByName("lbm")
	cp := *bm
	cp.RefScale = 500
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	opt := redfat.Defaults()
	opt.Profile = true
	prof, _, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	res, err := fuzz.Boost(prof, nil, fuzz.Options{MaxRuns: 5, MaxCycles: 5_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 0 {
		t.Errorf("runs without corpus: %d", res.Runs)
	}
}
