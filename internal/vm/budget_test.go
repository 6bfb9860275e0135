package vm_test

import (
	"errors"
	"fmt"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/obs"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// buildStraightLine assembles a single long basic block (no branches), so
// a small cycle budget is exceeded in the middle of the block rather than
// at a block boundary.
func buildStraightLine(t *testing.T, n int) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 0)
	for i := 0; i < n; i++ {
		b.AluRI(isa.ADD, isa.RAX, 1)
	}
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return bin
}

func TestCycleBudgetMidBlock(t *testing.T) {
	bin := buildStraightLine(t, 10_000)
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 500
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	err := v.Run()
	var cle *vm.CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("error = %v, want *CycleLimitError", err)
	}
	if v.Halted {
		t.Error("VM halted; the budget should have fired mid-block")
	}
	if cle.Cycles <= v.MaxCycles {
		t.Errorf("reported %d cycles, want > budget %d", cle.Cycles, v.MaxCycles)
	}
	if cle.Cycles != v.Cycles {
		t.Errorf("error cycles %d != VM cycles %d", cle.Cycles, v.Cycles)
	}
}

func TestCycleLimitErrorUnwrap(t *testing.T) {
	bin := buildStraightLine(t, 10_000)
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 100
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	wrapped := fmt.Errorf("run failed: %w", v.Run())
	var cle *vm.CycleLimitError
	if !errors.As(wrapped, &cle) {
		t.Fatalf("errors.As failed through the wrapper: %v", wrapped)
	}
	if cle.Cycles <= v.MaxCycles {
		t.Errorf("unwrapped cycles = %d, want > %d", cle.Cycles, v.MaxCycles)
	}
}

// TestTelemetrySurvivesCycleAbort checks that the counters and the final
// gauge flush reflect the partial execution after a budget abort.
func TestTelemetrySurvivesCycleAbort(t *testing.T) {
	bin := buildStraightLine(t, 10_000)
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 500
	reg := telemetry.New()
	v.AttachTelemetry(reg)
	flight := obs.NewFlight(16)
	flight.Execution = true
	v.Flight = flight
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	err := v.Run()
	var cle *vm.CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("error = %v, want *CycleLimitError", err)
	}
	if n := reg.CounterValue("vm.retired.total"); n == 0 || n != v.Insts {
		t.Errorf("vm.retired.total = %d, want %d (nonzero)", n, v.Insts)
	}
	if n := reg.CounterValue("vm.retired.add"); n == 0 {
		t.Error("vm.retired.add = 0, want the aborted block's ADDs counted")
	}
	if n := reg.CounterValue("vm.cycle.limit.aborts"); n != 1 {
		t.Errorf("vm.cycle.limit.aborts = %d, want 1", n)
	}
	if g := reg.GaugeValue("vm.cycles"); g != v.Cycles {
		t.Errorf("vm.cycles gauge = %d, want flushed %d", g, v.Cycles)
	}
	if g := reg.GaugeValue("vm.insts"); g != v.Insts {
		t.Errorf("vm.insts gauge = %d, want flushed %d", g, v.Insts)
	}
	if flight.Total() == 0 {
		t.Error("flight recorded no events before the abort")
	}
	if got := len(flight.Events()); got != 16 {
		t.Errorf("ring kept %d events, want capacity 16", got)
	}
}
