package vm_test

import (
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// run assembles, loads and runs a program built by build, returning the VM.
func run(t *testing.T, build func(b *asm.Builder), input ...uint64) *vm.VM {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	build(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return runBin(t, bin, input...)
}

func runBin(t *testing.T, bin *relf.Binary, input ...uint64) *vm.VM {
	t.Helper()
	m := mem.New()
	v := vm.New(m)
	v.Input = input
	v.MaxCycles = 100_000_000
	env := rtlib.LibC(heap.New(m), m)
	if err := v.Load(bin, env); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return v
}

func TestArithmetic(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 10)
		b.MovRI(isa.RBX, 32)
		b.AluRR(isa.ADD, isa.RAX, isa.RBX) // 42
		b.AluRI(isa.SUB, isa.RAX, 2)       // 40
		b.MovRI(isa.RCX, 3)
		b.Emit(isa.Inst{Op: isa.IMUL, Form: isa.FRR, Reg: isa.RAX, Reg2: isa.RCX, Size: 8}) // 120
		b.Shift(isa.SHR, isa.RAX, 1)                                                        // 60
		b.AluRI(isa.XOR, isa.RAX, 0xF)                                                      // 51
		b.Ret()
	})
	if v.ExitCode != 51 {
		t.Errorf("exit = %d, want 51", v.ExitCode)
	}
}

func TestLoop(t *testing.T) {
	// Sum 1..100 = 5050.
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RCX, 1)
		b.Label("loop")
		b.AluRR(isa.ADD, isa.RAX, isa.RCX)
		b.AluRI(isa.ADD, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 100)
		b.Jcc(isa.JLE, "loop")
		b.Ret()
	})
	if v.ExitCode != 5050 {
		t.Errorf("exit = %d, want 5050", v.ExitCode)
	}
	if v.Insts < 400 {
		t.Errorf("instruction count %d implausibly low", v.Insts)
	}
	if v.Cycles <= v.Insts {
		t.Error("cycles should exceed instruction count")
	}
}

func TestCallsAndStack(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RDI, 7)
		b.Call("double")
		b.Call("double")
		b.Ret() // returns RAX = 28
		b.Func("double")
		b.MovRR(isa.RAX, isa.RDI)
		b.AluRR(isa.ADD, isa.RAX, isa.RDI)
		b.MovRR(isa.RDI, isa.RAX)
		b.Ret()
	})
	if v.ExitCode != 28 {
		t.Errorf("exit = %d, want 28", v.ExitCode)
	}
}

func TestMemoryOperands(t *testing.T) {
	// Write an array via base+index*scale, then sum it.
	v := run(t, func(b *asm.Builder) {
		b.Zero("arr", 80)
		b.Func("main")
		b.LoadAddr(isa.RBX, "arr", 0)
		b.MovRI(isa.RCX, 0)
		b.Label("fill")
		b.StoreM(asm.MemBID(isa.RBX, isa.RCX, 8, 0), isa.RCX, 8)
		b.AluRI(isa.ADD, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 10)
		b.Jcc(isa.JL, "fill")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RCX, 0)
		b.Label("sum")
		b.AluRM(isa.ADD, isa.RAX, asm.MemBID(isa.RBX, isa.RCX, 8, 0), 8)
		b.AluRI(isa.ADD, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 10)
		b.Jcc(isa.JL, "sum")
		b.Ret()
	})
	if v.ExitCode != 45 {
		t.Errorf("exit = %d, want 45", v.ExitCode)
	}
}

func TestSubWidthAccess(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Zero("buf", 16)
		b.Func("main")
		b.LoadAddr(isa.RBX, "buf", 0)
		b.StoreI(isa.RBX, 0, -1, 8) // 0xFFFF...
		b.StoreI(isa.RBX, 2, 0, 1)  // clear byte 2
		b.Load(isa.RAX, isa.RBX, 0, 4)
		// bytes: FF FF 00 FF → 0xFF00FFFF
		b.Ret()
	})
	if v.ExitCode != 0xFF00FFFF {
		t.Errorf("exit = %#x, want 0xFF00FFFF", v.ExitCode)
	}
}

func TestSignExtension(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Global("vals", []byte{0xFE, 0xFF}) // -2 as int16
		b.Func("main")
		b.LoadAddr(isa.RBX, "vals", 0)
		b.Emit(isa.Inst{Op: isa.MOVSX, Form: isa.FRM, Reg: isa.RAX, Size: 2,
			Mem: isa.Mem{Base: isa.RBX, Index: isa.RegNone, Scale: 1}})
		b.AluRI(isa.ADD, isa.RAX, 44) // -2 + 44 = 42
		b.Ret()
	})
	if v.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", v.ExitCode)
	}
}

func TestConditionCodes(t *testing.T) {
	// Test each signed/unsigned comparison outcome.
	cases := []struct {
		a, b int64
		cond isa.Op
		want uint64
	}{
		{5, 5, isa.JE, 1}, {5, 6, isa.JE, 0},
		{5, 6, isa.JNE, 1},
		{-1, 1, isa.JL, 1}, {1, -1, isa.JL, 0},
		{-1, 1, isa.JB, 0}, // unsigned: -1 is huge
		{1, 2, isa.JB, 1},
		{2, 1, isa.JA, 1}, {1, 1, isa.JA, 0},
		{1, 1, isa.JAE, 1}, {1, 1, isa.JGE, 1},
		{-5, -4, isa.JLE, 1}, {-4, -5, isa.JG, 1},
		{-1, 0, isa.JS, 1}, {1, 0, isa.JNS, 1},
	}
	for _, c := range cases {
		v := run(t, func(b *asm.Builder) {
			b.Func("main")
			b.MovRI(isa.RAX, 0)
			b.MovRI(isa.RBX, c.a)
			b.MovRI(isa.RCX, c.b)
			b.AluRR(isa.CMP, isa.RBX, isa.RCX)
			b.Jcc(c.cond, "yes")
			b.Ret()
			b.Label("yes")
			b.MovRI(isa.RAX, 1)
			b.Ret()
		})
		if v.ExitCode != c.want {
			t.Errorf("cmp(%d,%d) %v = %d, want %d", c.a, c.b, c.cond, v.ExitCode, c.want)
		}
	}
}

func TestOverflowFlag(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RBX, int64(^uint64(0)>>1)) // INT64_MAX
		b.AluRI(isa.ADD, isa.RBX, 1)
		b.Jcc(isa.JO, "of")
		b.Ret()
		b.Label("of")
		b.MovRI(isa.RAX, 1)
		b.Ret()
	})
	if v.ExitCode != 1 {
		t.Error("signed overflow did not set OF")
	}
}

func TestDivision(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 1000)
		b.MovRI(isa.RBX, 7)
		b.Emit(isa.Inst{Op: isa.UDIV, Form: isa.FR, Reg: isa.RBX, Size: 8})
		// RAX=142, RDX=6 → return 142*10+6
		b.Emit(isa.Inst{Op: isa.IMUL, Form: isa.FRI, Reg: isa.RAX, Imm: 10, Size: 8})
		b.AluRR(isa.ADD, isa.RAX, isa.RDX)
		b.Ret()
	})
	if v.ExitCode != 1426 {
		t.Errorf("exit = %d, want 1426", v.ExitCode)
	}
}

func TestSignedDivision(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, -1000)
		b.Emit(isa.Inst{Op: isa.CQO, Form: isa.FNone})
		b.MovRI(isa.RBX, 7)
		b.Emit(isa.Inst{Op: isa.IDIV, Form: isa.FR, Reg: isa.RBX, Size: 8})
		b.Emit(isa.Inst{Op: isa.NEG, Form: isa.FR, Reg: isa.RAX, Size: 8})
		b.Ret()
	})
	if v.ExitCode != 142 {
		t.Errorf("exit = %d, want 142", v.ExitCode)
	}
}

func TestMallocFreeRoundTrip(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RDI, 64)
		b.CallImport("malloc")
		b.MovRR(isa.RBX, isa.RAX)
		b.StoreI(isa.RBX, 0, 1234, 8)
		b.Load(isa.RCX, isa.RBX, 0, 8)
		b.Push(isa.RCX)
		b.MovRR(isa.RDI, isa.RBX)
		b.CallImport("free")
		b.Pop(isa.RAX)
		b.Ret()
	})
	if v.ExitCode != 1234 {
		t.Errorf("exit = %d, want 1234", v.ExitCode)
	}
}

func TestInputOutput(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.CallImport("rf_input")
		b.MovRR(isa.RBX, isa.RAX)
		b.CallImport("rf_input")
		b.AluRR(isa.ADD, isa.RBX, isa.RAX)
		b.MovRR(isa.RDI, isa.RBX)
		b.CallImport("rf_output")
		b.MovRR(isa.RAX, isa.RBX)
		b.Ret()
	}, 40, 2)
	if v.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", v.ExitCode)
	}
	if len(v.Output) != 8 || v.Output[0] != 42 {
		t.Errorf("output = % x", v.Output)
	}
}

func TestPushfPopf(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.AluRI(isa.CMP, isa.RAX, 0) // ZF=1
		b.Emit(isa.Inst{Op: isa.PUSHF, Form: isa.FNone})
		b.AluRI(isa.CMP, isa.RAX, 1) // ZF=0
		b.Emit(isa.Inst{Op: isa.POPF, Form: isa.FNone})
		b.Jcc(isa.JE, "ok") // restored ZF=1
		b.Ret()
		b.Label("ok")
		b.MovRI(isa.RAX, 1)
		b.Ret()
	})
	if v.ExitCode != 1 {
		t.Error("pushf/popf did not preserve flags")
	}
}

func TestIndirectJumpAndCall(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.LoadAddr(isa.RBX, "target", 0)
		b.Emit(isa.Inst{Op: isa.CALL, Form: isa.FR, Reg: isa.RBX, Size: 8})
		b.Ret()
		b.Func("target")
		b.MovRI(isa.RAX, 77)
		b.Ret()
	})
	if v.ExitCode != 77 {
		t.Errorf("exit = %d, want 77", v.ExitCode)
	}
}

func TestPICBinary(t *testing.T) {
	b := asm.NewBuilder(asm.Options{PIC: true})
	b.GlobalU64("val", 33)
	b.Func("main")
	b.LoadGlobal(isa.RAX, "val", 0, 8)
	b.AluRI(isa.ADD, isa.RAX, 9)
	b.StoreGlobal("val", 0, isa.RAX, 8)
	b.LoadGlobal(isa.RAX, "val", 0, 8)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Rebase the PIC image to a fresh address (models PIE/ASLR load).
	bin.Rebase(0x5000_0000_0000)
	v := runBin(t, bin)
	if v.ExitCode != 42 {
		t.Errorf("exit = %d, want 42", v.ExitCode)
	}
}

func TestSegmentOverride(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FRM, Reg: isa.RAX, Size: 8,
		Mem: isa.Mem{Seg: isa.SegFS, Base: isa.RegNone, Index: isa.RegNone, Scale: 1, Disp: 0x10}})
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	v := vm.New(m)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	// Set up a TLS-style block at the FS base.
	v.FSBase = 0x7000_0000
	m.Map(0x7000_0000, 0x1000, mem.PermRW)
	m.Store(0x7000_0010, 8, 4242)
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 4242 {
		t.Errorf("exit = %d, want 4242", v.ExitCode)
	}
}

func TestTrapPatchDispatch(t *testing.T) {
	// Build a program with a TRAP whose patch table redirects to a
	// landing pad — the 1-byte patch tactic.
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 1)
	b.Func("trapsite")
	b.Emit(isa.Inst{Op: isa.TRAP, Form: isa.FNone})
	b.Ret() // skipped: trampoline jumps past it
	b.Func("landing")
	b.MovRI(isa.RAX, 99)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	trap, _ := bin.Lookup("trapsite")
	landing, _ := bin.Lookup("landing")
	bin.AddSection(&relf.Section{
		Name: relf.PatchTableSection, Kind: relf.SecMeta,
		Data: relf.EncodePatchTable(map[uint64]uint64{trap: landing}),
	})

	m := mem.New()
	v := vm.New(m)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	before := v.Cycles
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 99 {
		t.Errorf("exit = %d, want 99 (trap not dispatched)", v.ExitCode)
	}
	if v.Cycles-before < vm.CostTrap {
		t.Error("trap dispatch cost not charged")
	}
}

func TestTrapWithoutPatchFails(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.Emit(isa.Inst{Op: isa.TRAP, Form: isa.FNone})
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	v := vm.New(m)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err == nil {
		t.Error("unpatched trap executed successfully")
	}
}

func TestSegfaultOnWildAccess(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RBX, 0x1234)
	b.Load(isa.RAX, isa.RBX, 0, 8)
	b.Ret()
	bin, _ := b.Build()
	m := mem.New()
	v := vm.New(m)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	err := v.Run()
	if err == nil {
		t.Fatal("wild access did not fault")
	}
	if _, ok := err.(*mem.Fault); !ok {
		t.Errorf("error = %v, want *mem.Fault", err)
	}
}

func TestCycleLimit(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.Label("spin")
	b.Jmp("spin")
	bin, _ := b.Build()
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 10_000
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	err := v.Run()
	if _, ok := err.(*vm.CycleLimitError); !ok {
		t.Errorf("error = %v, want CycleLimitError", err)
	}
}

// TestProfilerTimelineKeepsNewest samples every retire of a loop long
// enough to wrap the profiler's timeline ring several thousand samples
// past its capacity: the timeline must hold the newest samples, each
// following the previous one, in guest-cycle order.
func TestProfilerTimelineKeepsNewest(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, 2000)
	b.Jcc(isa.JL, "loop")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	v := vm.New(m)
	prof := &vm.GuestProfiler{Interval: 1}
	v.Profiler = prof
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	tl := prof.Timeline()
	if len(tl) == 0 || uint64(len(tl)) >= prof.SampleCount() {
		t.Fatalf("timeline keeps %d of %d samples; the ring never wrapped", len(tl), prof.SampleCount())
	}
	if newest := tl[len(tl)-1].Cycles; newest != prof.TotalCycles() {
		t.Errorf("newest retained sample at cycle %d, last sample at %d", newest, prof.TotalCycles())
	}
	for i := 1; i < len(tl); i++ {
		if tl[i].Cycles-tl[i].Weight != tl[i-1].Cycles {
			t.Fatalf("sample %d (cycle %d, weight %d) does not follow sample %d (cycle %d)",
				i, tl[i].Cycles, tl[i].Weight, i-1, tl[i-1].Cycles)
		}
	}
}

func TestUnresolvedImport(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.CallImport("no_such_function")
	b.Ret()
	bin, _ := b.Build()
	m := mem.New()
	v := vm.New(m)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err == nil {
		t.Error("load with unresolved import succeeded")
	}
}

func TestMemcpyMemsetHostFuncs(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Zero("a", 64)
		b.Zero("b", 64)
		b.Func("main")
		b.LoadAddr(isa.RDI, "a", 0)
		b.MovRI(isa.RSI, 0x5A)
		b.MovRI(isa.RDX, 64)
		b.CallImport("memset")
		b.LoadAddr(isa.RDI, "b", 0)
		b.LoadAddr(isa.RSI, "a", 0)
		b.MovRI(isa.RDX, 64)
		b.CallImport("memcpy")
		b.LoadGlobal(isa.RAX, "b", 63, 1)
		b.Ret()
	})
	if v.ExitCode != 0x5A {
		t.Errorf("exit = %#x, want 0x5A", v.ExitCode)
	}
}

func TestStrlen(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Global("s", append([]byte("hello world"), 0))
		b.Func("main")
		b.LoadAddr(isa.RDI, "s", 0)
		b.CallImport("strlen")
		b.Ret()
	})
	if v.ExitCode != 11 {
		t.Errorf("strlen = %d, want 11", v.ExitCode)
	}
}

func TestIncDecPreserveCF(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RBX, 1)
		b.AluRI(isa.CMP, isa.RAX, 1) // CF=1 (0 < 1 unsigned)
		b.Emit(isa.Inst{Op: isa.INC, Form: isa.FR, Reg: isa.RBX, Size: 8})
		b.Jcc(isa.JB, "cfset") // CF must survive INC
		b.Ret()
		b.Label("cfset")
		b.MovRI(isa.RAX, 1)
		b.Ret()
	})
	if v.ExitCode != 1 {
		t.Error("INC clobbered CF")
	}
}

func TestExitHostFunc(t *testing.T) {
	v := run(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RDI, 7)
		b.CallImport("exit")
		b.MovRI(isa.RAX, 1) // unreachable
		b.Ret()
	})
	if v.ExitCode != 7 {
		t.Errorf("exit = %d, want 7", v.ExitCode)
	}
}
