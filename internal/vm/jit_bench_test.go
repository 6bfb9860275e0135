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

// benchHotLoop is a tight counted loop: the superblock tier's best case
// (one trace, entered once per iteration via the loop back edge).
func benchHotLoop(iters int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RBX, 0)
		b.Label("loop")
		b.AluRI(isa.ADD, isa.RAX, 3)
		b.Shift(isa.SHL, isa.RAX, 1)
		b.Shift(isa.SHR, isa.RAX, 1)
		b.AluRI(isa.ADD, isa.RBX, 1)
		b.AluRI(isa.CMP, isa.RBX, iters)
		b.Jcc(isa.JL, "loop")
		b.Ret()
	}
}

// benchSideExit alternates a conditional every iteration, so half the
// trace entries leave through the unpredicted side exit with per-step
// telemetry replay and full state materialization.
func benchSideExit(iters int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RBX, 0)
		b.MovRI(isa.RCX, 0)
		b.Label("loop")
		b.AluRI(isa.XOR, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 0)
		b.Jcc(isa.JE, "even")
		b.AluRI(isa.ADD, isa.RAX, 3)
		b.Jmp("join")
		b.Label("even")
		b.AluRI(isa.ADD, isa.RAX, 1)
		b.Label("join")
		b.AluRI(isa.ADD, isa.RBX, 1)
		b.AluRI(isa.CMP, isa.RBX, iters)
		b.Jcc(isa.JL, "loop")
		b.Ret()
	}
}

// benchDeoptStorm retargets an indirect jump every iteration: the trace
// ends at a dynamic exit whose one-entry successor cache is defeated
// each round, the worst case for trace exit dispatch.
func benchDeoptStorm(iters int64) func(b *asm.Builder) {
	return func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RBX, 0)
		b.MovRI(isa.RCX, 0)
		b.Label("loop")
		b.AluRI(isa.XOR, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 0)
		b.Jcc(isa.JE, "even")
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
		b.AluRI(isa.ADD, isa.RBX, 1)
		b.AluRI(isa.CMP, isa.RBX, iters)
		b.Jcc(isa.JL, "loop")
		b.Ret()
	}
}

// buildBench assembles one benchmark program.
func buildBench(tb testing.TB, gen func(b *asm.Builder)) *relf.Binary {
	tb.Helper()
	b := asm.NewBuilder(asm.Options{})
	gen(b)
	bin, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return bin
}

// benchRun executes bin once on a fresh VM and returns retired guest
// instructions.
func benchRun(tb testing.TB, bin *relf.Binary, noJIT bool) uint64 {
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 2_000_000_000
	v.NoJIT = noJIT
	v.JITThreshold = 8
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		tb.Fatal(err)
	}
	if err := v.Run(); err != nil {
		tb.Fatal(err)
	}
	return v.Insts
}

// benchSuperblock reports ns per retired guest instruction for one
// program under one tier setting.
func benchSuperblock(b *testing.B, gen func(*asm.Builder), noJIT bool) {
	bin := buildBench(b, gen)
	var insts uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insts = benchRun(b, bin, noJIT)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts)/float64(b.N), "ns/inst")
}

func BenchmarkSuperblockHotLoop(b *testing.B) {
	b.Run("jit", func(b *testing.B) { benchSuperblock(b, benchHotLoop(200_000), false) })
	b.Run("nojit", func(b *testing.B) { benchSuperblock(b, benchHotLoop(200_000), true) })
}

func BenchmarkSuperblockSideExit(b *testing.B) {
	b.Run("jit", func(b *testing.B) { benchSuperblock(b, benchSideExit(200_000), false) })
	b.Run("nojit", func(b *testing.B) { benchSuperblock(b, benchSideExit(200_000), true) })
}

func BenchmarkSuperblockDeoptStorm(b *testing.B) {
	b.Run("jit", func(b *testing.B) { benchSuperblock(b, benchDeoptStorm(200_000), false) })
	b.Run("nojit", func(b *testing.B) { benchSuperblock(b, benchDeoptStorm(200_000), true) })
}
