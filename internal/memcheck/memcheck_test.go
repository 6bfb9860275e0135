package memcheck_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/memcheck"
	"redfat/internal/obs"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

func buildArrayProg(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.CallImport("rf_input")
	b.MovRI(isa.RCX, 7)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 8, 0), isa.RCX, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestBenignRun(t *testing.T) {
	bin := buildArrayProg(t)
	v, err := memcheck.Run(bin, rtlib.RunConfig{Input: []uint64{2}, Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 0 || len(v.Errors) != 0 {
		t.Errorf("exit=%d errors=%v", v.ExitCode, v.Errors)
	}
}

func TestDetectsIncrementalOverflow(t *testing.T) {
	// array[5] hits the right redzone: Memcheck catches this.
	bin := buildArrayProg(t)
	_, err := memcheck.Run(bin, rtlib.RunConfig{Input: []uint64{5}, Abort: true})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrOOBWrite {
		t.Errorf("incremental overflow: %v", err)
	}
}

func TestMissesNonIncrementalOverflow(t *testing.T) {
	// An offset that skips the 16-byte redzone into the next chunk's
	// payload is invisible to redzone-only checking (paper Problem #1).
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc") // adjacent victim object
	b.MovRR(isa.R13, isa.RAX)
	b.AluRR(isa.SUB, isa.R13, isa.RBX) // victim − array = byte distance
	b.CallImport("rf_input")           // offset inside the victim (0..39)
	b.AluRR(isa.ADD, isa.RAX, isa.R13) // index = distance + input
	b.MovRI(isa.RCX, 0x41)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 1, 0), isa.RCX, 1) // array[idx] = 0x41
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := memcheck.Run(bin, rtlib.RunConfig{Input: []uint64{8}, Abort: true})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("Memcheck unexpectedly caught the redzone skip: %v %v", err, v.Errors)
	}
}

func TestDetectsUseAfterFree(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 64)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRR(isa.RDI, isa.RAX)
	b.CallImport("free")
	b.Load(isa.RAX, isa.RBX, 0, 8)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	_, err = memcheck.Run(bin, rtlib.RunConfig{Abort: true})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrUseAfterFree {
		t.Errorf("UaF: %v", err)
	}
}

func TestDBIOverheadCharged(t *testing.T) {
	// A store loop long enough for the DBI costs to dominate: Memcheck
	// should be several times slower than the native baseline.
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 8000)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.StoreM(asm.MemBID(isa.RBX, isa.RCX, 8, 0), isa.RCX, 8)
	b.AluRM(isa.ADD, isa.RDX, asm.MemBID(isa.RBX, isa.RCX, 8, 0), 8)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, 1000)
	b.Jcc(isa.JL, "loop")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	mc, err := memcheck.Run(bin, rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	slowdown := float64(mc.Cycles) / float64(base.Cycles)
	if slowdown < 3 || slowdown > 40 {
		t.Errorf("Memcheck slowdown %.1f× outside plausible range", slowdown)
	}
}

// TestTelemetryAttached checks that Memcheck runs feed the run's registry
// and event ring like every other runner.
func TestTelemetryAttached(t *testing.T) {
	bin := buildArrayProg(t)
	reg := telemetry.New()
	flight := obs.NewFlight(64)
	flight.Execution = true
	v, err := memcheck.Run(bin, rtlib.RunConfig{Input: []uint64{2}, Metrics: reg, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["vm.retired.total"]; got != v.Insts || got == 0 {
		t.Errorf("vm.retired.total = %d, want %d", got, v.Insts)
	}
	retires := 0
	for _, e := range flight.Events() {
		if e.Kind == obs.EvInst {
			retires++
		}
	}
	if retires == 0 {
		t.Error("event ring holds no retire events")
	}
}

// TestLandingPadsEnforced checks that Memcheck runs a marker-built binary
// under the same landing-pad enforcement as every other runner: an
// indirect jump to a byte that is not an LPAD faults.
func TestLandingPadsEnforced(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RCX, 0)
	b.LoadIndexed(isa.RAX, "table", isa.RCX, 8, 8)
	b.JmpReg(isa.RAX)
	b.Label("target") // no LPAD
	b.MovRI(isa.RAX, 0)
	b.Ret()
	b.JumpTable("table", "target")
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memcheck.Run(bin, rtlib.RunConfig{}); err == nil ||
		!strings.Contains(err.Error(), "not a landing pad") {
		t.Fatalf("indirect jump to a non-LPAD target: err = %v", err)
	}
}

// TestWrapperMallocHugeFails: a request near 2^64 fails with an
// out-of-memory error. 2^63 used to spin in the heap's size rounding, so
// the calls run under a bounded wait; it comes first because the sizes
// whose redzones wrap past 2^64 used to allocate a tiny chunk and then
// unpoison (and so allocate shadow for) a 2^64-byte range.
func TestWrapperMallocHugeFails(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		w := memcheck.NewWrapper(heap.New(mem.New()))
		for _, size := range []uint64{1 << 63, ^uint64(0), ^uint64(0) - 2*memcheck.RedzoneSize + 1} {
			if p, err := w.Malloc(size); err == nil {
				done <- fmt.Errorf("Malloc(%#x) = %#x, want an out-of-memory error", size, p)
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Malloc of a huge size did not return")
	}
}
