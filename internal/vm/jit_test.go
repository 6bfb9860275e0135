package vm_test

import (
	"errors"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// jitProgram builds a workload exercising every trace shape the
// superblock tier handles: a hot counted loop (the compiled back edge),
// an alternating conditional inside it (side exits in both directions),
// memory traffic through the stack and a global, calls/returns, shifts
// and flag consumers, and an indirect jump whose target alternates (a
// dynamic exit that retargets every iteration).
func jitProgram(b *asm.Builder) {
	b.Func("main")
	b.GlobalU64("acc", 0)
	b.MovRI(isa.RAX, 0)
	b.MovRI(isa.RBX, 0)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.AluRI(isa.CMP, isa.RCX, 0)
	b.Jcc(isa.JE, "even") // alternates: side exit on both predictions
	b.LoadAddr(isa.RDX, "odd", 0)
	b.Jmp("dispatch")
	b.Label("even")
	b.LoadAddr(isa.RDX, "evenbody", 0)
	b.Label("dispatch")
	b.Emit(isa.Inst{Op: isa.JMP, Form: isa.FR, Reg: isa.RDX})
	b.Label("odd")
	b.AluRI(isa.ADD, isa.RAX, 3)
	b.Jmp("join")
	b.Label("evenbody")
	b.AluRI(isa.ADD, isa.RAX, 1)
	b.Label("join")
	b.Push(isa.RAX)
	b.Pop(isa.RDX)
	b.LoadGlobal(isa.RSI, "acc", 0, 8)
	b.AluRR(isa.ADD, isa.RSI, isa.RDX)
	b.StoreGlobal("acc", 0, isa.RSI, 8)
	b.Call("twiddle")
	b.AluRI(isa.XOR, isa.RCX, 1)
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.AluRI(isa.CMP, isa.RBX, 400)
	b.Jcc(isa.JL, "loop")
	b.Ret()

	b.Func("twiddle")
	b.MovRR(isa.RDI, isa.RAX)
	b.Shift(isa.SHL, isa.RDI, 3)
	b.Shift(isa.SHR, isa.RDI, 3)
	b.Emit(isa.Inst{Op: isa.NEG, Form: isa.FR, Reg: isa.RDI})
	b.Emit(isa.Inst{Op: isa.NEG, Form: isa.FR, Reg: isa.RDI})
	b.Ret()
}

// buildJIT assembles jitProgram once per test.
func buildJIT(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	jitProgram(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// jitRun executes bin under the given tier knobs and returns the VM, its
// telemetry snapshot, and the run error.
func jitRun(t *testing.T, bin *relf.Binary, noJIT bool, threshold, maxCycles uint64) (*vm.VM, *telemetry.Snapshot, error) {
	t.Helper()
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = maxCycles
	v.NoJIT = noJIT
	v.JITThreshold = threshold
	reg := telemetry.New()
	v.AttachTelemetry(reg)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatalf("load: %v", err)
	}
	err := v.Run()
	return v, reg.Snapshot(), err
}

// stripJITHost removes the host-side tier metrics (and the icache
// counters chaining perturbs) so the remaining guest-derived telemetry
// can be compared across knob settings.
func stripJITHost(s *telemetry.Snapshot) *telemetry.Snapshot {
	for name := range s.Counters {
		if hasJITPrefix(name) {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if hasJITPrefix(name) {
			delete(s.Gauges, name)
		}
	}
	for name := range s.Histograms {
		if hasJITPrefix(name) {
			delete(s.Histograms, name)
		}
	}
	return s
}

func hasJITPrefix(name string) bool {
	return len(name) >= 7 && name[:7] == "vm.jit." ||
		len(name) >= 10 && name[:10] == "vm.icache."
}

// TestJITIdentity runs the trace-shape workload hot enough to compile
// and checks every guest-visible quantity is bit-identical with the tier
// on and off, while the tier telemetry proves real activity: traces
// compiled, entered, instructions retired in compiled code, and deopts
// from the alternating side exits.
func TestJITIdentity(t *testing.T) {
	bin := buildJIT(t)
	jit, jitTel, jitErr := jitRun(t, bin, false, 4, 100_000_000)
	ref, refTel, refErr := jitRun(t, bin, true, 4, 100_000_000)
	if (jitErr == nil) != (refErr == nil) {
		t.Fatalf("error divergence: jit %v, nojit %v", jitErr, refErr)
	}
	if jit.ExitCode != ref.ExitCode || jit.Cycles != ref.Cycles || jit.Insts != ref.Insts {
		t.Fatalf("jit/nojit divergence: exit %d/%d cycles %d/%d insts %d/%d",
			jit.ExitCode, ref.ExitCode, jit.Cycles, ref.Cycles, jit.Insts, ref.Insts)
	}
	// 200 even + 200 odd iterations: 200*1 + 200*3 (mod 2^7 guest mask
	// is not applied at the VM layer; ExitCode is the raw RAX).
	if jit.ExitCode != 800 {
		t.Fatalf("exit = %d, want 800", jit.ExitCode)
	}
	if n := jitTel.Counters["vm.jit.compile.count"]; n == 0 {
		t.Error("no traces compiled on a hot loop")
	}
	if n := jitTel.Counters["vm.jit.enter.count"]; n == 0 {
		t.Error("no trace entries recorded")
	}
	if n := jitTel.Counters["vm.jit.exec.insts"]; n == 0 {
		t.Error("no instructions retired in compiled code")
	}
	if n := jitTel.Counters["vm.jit.deopt.count"]; n == 0 {
		t.Error("alternating branch produced no deopts")
	}
	if len(jit.CompiledTraces()) == 0 {
		t.Error("CompiledTraces is empty after compilation")
	}
	if n := refTel.Counters["vm.jit.compile.count"]; n != 0 {
		t.Errorf("NoJIT run compiled %d traces", n)
	}
	// Guest-derived telemetry (retired per-op, loads/stores/branches,
	// rtcall costs) must match exactly once host-side metrics are gone.
	a, b := stripJITHost(jitTel), stripJITHost(refTel)
	for name, av := range a.Counters {
		if bv := b.Counters[name]; av != bv {
			t.Errorf("counter %s: jit %d, nojit %d", name, av, bv)
		}
	}
	for name, bv := range b.Counters {
		if _, ok := a.Counters[name]; !ok && bv != 0 {
			t.Errorf("counter %s only in nojit run (%d)", name, bv)
		}
	}
}

// TestJITThreshold checks the hotness knob: a threshold above the
// workload's iteration count must keep everything interpreted, and the
// lowest threshold must compile the loop.
func TestJITThreshold(t *testing.T) {
	bin := buildJIT(t)
	_, cold, err := jitRun(t, bin, false, 1<<20, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := cold.Counters["vm.jit.compile.count"]; n != 0 {
		t.Errorf("threshold 1<<20 still compiled %d traces", n)
	}
	_, hot, err := jitRun(t, bin, false, 1, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if n := hot.Counters["vm.jit.compile.count"]; n == 0 {
		t.Error("threshold 1 compiled nothing")
	}
}

// TestJITBudgetAbortIdentity sweeps cycle budgets across trace
// boundaries and mid-trace points: the abort must fire at the exact
// cycle count and instruction the interpreter aborts at, which the tier
// guarantees by refusing trace entry when the worst-case iteration
// exceeds the remaining budget.
func TestJITBudgetAbortIdentity(t *testing.T) {
	bin := buildJIT(t)
	aborted := 0
	for _, budget := range []uint64{50, 101, 777, 1001, 4096, 54321} {
		jit, _, jitErr := jitRun(t, bin, false, 2, budget)
		ref, _, refErr := jitRun(t, bin, true, 2, budget)
		var jl, rl *vm.CycleLimitError
		if errors.As(refErr, &rl) {
			aborted++
			if !errors.As(jitErr, &jl) {
				t.Fatalf("budget %d: interpreter aborted, jit did not: %v", budget, jitErr)
			}
			if jl.Cycles != rl.Cycles {
				t.Errorf("budget %d: abort cycle differs: jit %d, nojit %d", budget, jl.Cycles, rl.Cycles)
			}
		} else if jitErr != nil {
			t.Fatalf("budget %d: jit errored where interpreter completed: %v", budget, jitErr)
		}
		if jit.Cycles != ref.Cycles || jit.Insts != ref.Insts || jit.RIP != ref.RIP {
			t.Errorf("budget %d: abort state differs: cycles %d/%d insts %d/%d rip %#x/%#x",
				budget, jit.Cycles, ref.Cycles, jit.Insts, ref.Insts, jit.RIP, ref.RIP)
		}
	}
	if aborted == 0 {
		t.Fatal("no budget in the sweep aborted; the abort path is unexercised")
	}
}

// TestJITFlushICache rewrites hot compiled code in place: FlushICache
// must drop the trace with the block generation so re-execution decodes
// and recompiles the new code instead of running the stale superblock.
func TestJITFlushICache(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 0)
	b.MovRI(isa.RBX, 0)
	b.Label("loop")
	b.AluRI(isa.ADD, isa.RAX, 7)
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.AluRI(isa.CMP, isa.RBX, 100)
	b.Jcc(isa.JL, "loop")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 1_000_000
	v.JITThreshold = 2
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	entry := v.RIP
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 700 {
		t.Fatalf("first run exit = %d, want 700", v.ExitCode)
	}
	if len(v.CompiledTraces()) == 0 {
		t.Fatal("hot loop did not compile; the flush path is unexercised")
	}

	// Patch the ADD immediate 7 → 9 in place and flush.
	text := bin.Section(".text")
	m.Protect(text.Addr, uint64(len(text.Data)), mem.PermRW)
	var buf [64]byte
	if err := m.ReadAt(entry, buf[:]); err != nil {
		t.Fatal(err)
	}
	patched := false
	for i := range buf {
		if buf[i] == 7 {
			if err := m.Store(entry+uint64(i), 1, 9); err != nil {
				t.Fatal(err)
			}
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("could not locate immediate to patch")
	}
	m.Protect(text.Addr, uint64(len(text.Data)), mem.PermRX)
	v.FlushICache()
	if len(v.CompiledTraces()) != 0 {
		t.Fatal("FlushICache retained compiled traces")
	}

	v.Halted = false
	v.RIP = entry
	v.Regs[isa.RSP] = relf.DefaultStackTop - 64
	if err := v.Mem.Store(v.Regs[isa.RSP]-8, 8, vm.ExitSentinel); err != nil {
		t.Fatal(err)
	}
	v.Regs[isa.RSP] -= 8
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 900 {
		t.Fatalf("post-flush exit = %d, want 900 (stale superblock executed)", v.ExitCode)
	}
	if len(v.CompiledTraces()) == 0 {
		t.Error("patched loop did not recompile after the flush")
	}
}

// TestJITDivFaultIdentity checks that a division fault inside a hot
// compiled loop carries the exact interpreter error text and machine
// state (cycles are charged before the fault, RIP points at the DIV).
func TestJITDivFaultIdentity(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 1000)
	b.MovRI(isa.RBX, 0)
	b.MovRI(isa.RCX, 40) // countdown: divisor hits zero on iteration 40
	b.Label("loop")
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.MovRR(isa.RDI, isa.RCX)
	b.Emit(isa.Inst{Op: isa.UDIV, Form: isa.FR, Reg: isa.RDI})
	b.AluRI(isa.SUB, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RBX, 100)
	b.Jcc(isa.JL, "loop")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	jit, _, jitErr := jitRun(t, bin, false, 2, 1_000_000)
	ref, _, refErr := jitRun(t, bin, true, 2, 1_000_000)
	if jitErr == nil || refErr == nil {
		t.Fatalf("expected division fault, got jit %v, nojit %v", jitErr, refErr)
	}
	if jitErr.Error() != refErr.Error() {
		t.Errorf("fault text differs:\njit:   %v\nnojit: %v", jitErr, refErr)
	}
	if jit.Cycles != ref.Cycles || jit.Insts != ref.Insts || jit.RIP != ref.RIP {
		t.Errorf("fault state differs: cycles %d/%d insts %d/%d rip %#x/%#x",
			jit.Cycles, ref.Cycles, jit.Insts, ref.Insts, jit.RIP, ref.RIP)
	}
}
