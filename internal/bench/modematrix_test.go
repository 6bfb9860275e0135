package bench_test

import (
	"strings"
	"testing"

	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// TestModeMatrixNoFalsePositives sweeps the allocator hardening modes
// over the full benchmark suite: each mode must not introduce any new
// detection beyond what the same hardened binary reports with the mode
// off. The under-allocation self-test deliberately induces detections,
// but every one of them must carry its "self-test under-allocation" tag
// — an untagged new detection under any mode is a false positive.
func TestModeMatrixNoFalsePositives(t *testing.T) {
	if testing.Short() {
		t.Skip("mode x benchmark sweep")
	}
	modes := []struct {
		name string
		cfg  rtlib.RunConfig
		// tagged allows detections carrying the self-test tag.
		tagged bool
	}{
		{name: "quarantine", cfg: rtlib.RunConfig{Knobs: rtlib.Knobs{QuarantineBytes: 1 << 20}}},
		{name: "canary", cfg: rtlib.RunConfig{Knobs: rtlib.Knobs{Canary: true}}},
		{name: "underalloc", cfg: rtlib.RunConfig{Knobs: rtlib.Knobs{UnderAllocEvery: 8}}, tagged: true},
	}
	for _, bm := range workload.All() {
		cp := *bm
		cp.TrainScale, cp.RefScale = 300, 1500
		bin, err := cp.Build()
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		base, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: cp.RefInput()})
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		basePCs := vm.ErrorSites(base.Errors)
		for _, m := range modes {
			cfg := m.cfg
			cfg.Input = cp.RefInput()
			v, _, err := rtlib.RunHardened(hard, cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", cp.Name, m.name, err)
			}
			var fresh []vm.MemError
			for _, e := range v.Errors {
				if m.tagged && strings.Contains(e.Note, "self-test under-allocation") {
					continue
				}
				if !basePCs[e.PC] {
					fresh = append(fresh, e)
				}
			}
			if len(fresh) != 0 {
				t.Errorf("%s/%s: %d mode-induced false positive(s), first: %v",
					cp.Name, m.name, len(fresh), fresh[0].Error())
			}
			// Quarantine and canary are pure allocator hardening: the
			// guest's computation must be unchanged.
			if m.name != "underalloc" && v.ExitCode != base.ExitCode {
				t.Errorf("%s/%s: exit checksum changed: %d -> %d",
					cp.Name, m.name, base.ExitCode, v.ExitCode)
			}
		}
	}
}
