package rtlib_test

import (
	"reflect"
	"strings"
	"testing"

	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// stripHostOnly removes the vm.icache.* and vm.jit.* metrics from a
// snapshot: they describe host-side machinery — the block cache, which
// the per-instruction VM.Step reference never fills, and the superblock
// tier, which only exists when the JIT knob is on. Everything
// else — retired counts, loads, stores, branches, cycles, check and
// allocator metrics — is guest-derived and must be bit-identical across
// the dispatch strategies.
func stripHostOnly(s *telemetry.Snapshot) *telemetry.Snapshot {
	hostOnly := func(name string) bool {
		return strings.HasPrefix(name, "vm.icache.") || strings.HasPrefix(name, "vm.jit.")
	}
	for name := range s.Counters {
		if hostOnly(name) {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if hostOnly(name) {
			delete(s.Gauges, name)
		}
	}
	for name := range s.Histograms {
		if hostOnly(name) {
			delete(s.Histograms, name)
		}
	}
	return s
}

// fastPathConfigs is the dispatch identity matrix. The first row — the
// block cache with chaining, the superblock tier and the software TLB,
// as every run ships — is the reference the rest are diffed against.
// The noJIT row isolates the tier; the step row is the cache-free
// reference: VM.Step over memory whose TLB is off from before load, so
// it bypasses the block cache, chains, traces and TLB at once.
var fastPathConfigs = []struct {
	name        string
	step, noJIT bool
}{
	{"jit", false, false},
	{"nojit", false, true},
	{"step", true, true},
}

// runBoth executes the same binary under every row of the dispatch
// identity matrix and fails the test on any guest-visible divergence
// from the reference (all fast paths enabled).
func runBoth(t *testing.T, name string, run func(cfg rtlib.RunConfig) (*vm.VM, error)) {
	t.Helper()
	exec := func(step, noJIT bool) (*vm.VM, *telemetry.Snapshot, error) {
		if step {
			defer rtlib.StepReference()()
		}
		reg := telemetry.New()
		v, err := run(rtlib.RunConfig{
			Knobs:   rtlib.Knobs{NoJIT: noJIT},
			Metrics: reg,
		})
		return v, stripHostOnly(reg.Snapshot()), err
	}
	ref := fastPathConfigs[0]
	refVM, refTel, refErr := exec(ref.step, ref.noJIT)
	for _, c := range fastPathConfigs[1:] {
		gotVM, gotTel, gotErr := exec(c.step, c.noJIT)
		label := name + "/" + c.name
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("%s: error divergence: ref %v, got %v", label, refErr, gotErr)
		}
		if refErr != nil && refErr.Error() != gotErr.Error() {
			t.Errorf("%s: error text differs: ref %q, got %q", label, refErr, gotErr)
		}
		if hits := gotVM.Mem.TLB().Hits; c.step && hits != 0 {
			t.Errorf("%s: cache-free reference hit the software TLB %d times", label, hits)
		}
		if refVM.Cycles != gotVM.Cycles {
			t.Errorf("%s: cycles differ: ref %d, got %d", label, refVM.Cycles, gotVM.Cycles)
		}
		if refVM.Insts != gotVM.Insts {
			t.Errorf("%s: insts differ: ref %d, got %d", label, refVM.Insts, gotVM.Insts)
		}
		if refVM.ExitCode != gotVM.ExitCode {
			t.Errorf("%s: exit code differs: ref %d, got %d", label, refVM.ExitCode, gotVM.ExitCode)
		}
		if !reflect.DeepEqual(refVM.Errors, gotVM.Errors) {
			t.Errorf("%s: detected errors differ: ref %v, got %v", label, refVM.Errors, gotVM.Errors)
		}
		if !reflect.DeepEqual(refVM.Output, gotVM.Output) {
			t.Errorf("%s: output differs", label)
		}
		if !reflect.DeepEqual(refTel, gotTel) {
			t.Errorf("%s: guest-derived telemetry differs:\nref: %+v\ngot: %+v", label, refTel, gotTel)
		}
	}
}

// TestBlockCacheIdentity runs the whole workload suite — baseline and
// fully hardened — under every dispatch strategy and requires
// bit-identical guest results.
func TestBlockCacheIdentity(t *testing.T) {
	bms := workload.All()
	if testing.Short() {
		bms = bms[:6]
	}
	for _, bm := range bms {
		cp := *bm
		cp.RefScale = 1500
		cp.TrainScale = 300
		bin, err := cp.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cp.Name, err)
		}
		input := cp.RefInput()
		runBoth(t, cp.Name+"/baseline", func(cfg rtlib.RunConfig) (*vm.VM, error) {
			cfg.Input = input
			return rtlib.RunBaseline(bin, cfg)
		})
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: harden: %v", cp.Name, err)
		}
		runBoth(t, cp.Name+"/hardened", func(cfg rtlib.RunConfig) (*vm.VM, error) {
			cfg.Input = input
			v, _, err := rtlib.RunHardened(hard, cfg)
			return v, err
		})
	}
}

// TestFastPathForensicsIdentity runs a hardened workload with a planted
// error under forensics and the guest profiler across the whole knob
// matrix: error reports and profile samples are derived from guest state
// (cycles, PCs, stacks), so they must be bit-identical on every path.
func TestFastPathForensicsIdentity(t *testing.T) {
	bm := workload.ByName("calculix") // planted out-of-bounds read
	cp := *bm
	cp.RefScale = 1500
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	input := cp.RefInput()

	type forensicRun struct {
		v       *vm.VM
		samples []vm.ProfSample
	}
	exec := func(step, noJIT bool) forensicRun {
		if step {
			defer rtlib.StepReference()()
		}
		prof := &vm.GuestProfiler{Interval: 64}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input:     input,
			Knobs:     rtlib.Knobs{NoJIT: noJIT},
			Forensics: true,
			Profiler:  prof,
		})
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return forensicRun{v: v, samples: prof.Samples()}
	}
	refCfg := fastPathConfigs[0]
	ref := exec(refCfg.step, refCfg.noJIT)
	if len(ref.v.Errors) == 0 {
		t.Fatal("calculix run detected no errors; forensics path unexercised")
	}
	for _, c := range fastPathConfigs[1:] {
		got := exec(c.step, c.noJIT)
		if ref.v.Cycles != got.v.Cycles || ref.v.Insts != got.v.Insts {
			t.Errorf("%s: cycles/insts differ: ref %d/%d, got %d/%d",
				c.name, ref.v.Cycles, ref.v.Insts, got.v.Cycles, got.v.Insts)
		}
		if !reflect.DeepEqual(ref.v.Errors, got.v.Errors) {
			t.Errorf("%s: detected errors differ", c.name)
		}
		if !reflect.DeepEqual(ref.samples, got.samples) {
			t.Errorf("%s: profiler samples differ (%d vs %d stacks)",
				c.name, len(ref.samples), len(got.samples))
		}
	}
}

// TestBlockCacheCycleBudgetIdentity checks that the cycle-budget abort
// fires at the same cycle count on every path, including mid-block.
func TestBlockCacheCycleBudgetIdentity(t *testing.T) {
	bm := workload.ByName("bzip2")
	cp := *bm
	cp.RefScale = 5000
	bin, err := cp.Build()
	if err != nil {
		t.Fatal(err)
	}
	input := cp.RefInput()
	for _, budget := range []uint64{100, 1001, 54321, 300007} {
		runBoth(t, "bzip2/budget", func(cfg rtlib.RunConfig) (*vm.VM, error) {
			cfg.Input = input
			cfg.MaxCycles = budget
			return rtlib.RunBaseline(bin, cfg)
		})
	}
}
