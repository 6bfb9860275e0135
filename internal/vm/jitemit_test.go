package vm_test

import (
	"reflect"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// noOpLoop is a counted loop whose body holds every step kind that
// compiles to no closure — a NOP, an LPAD, a rel8 and a rel32 jump, a
// patched TRAP, a TEST and a CMP whose flags are dead, and a shift by
// zero — followed by two ADDs and a CMP+JL pair, which fuse into one
// closure.
func noOpLoop(t *testing.T) *relf.Binary {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 7)
	b.MovRI(isa.RBX, 0)
	b.Label("loop")
	b.Nop()
	b.Lpad()
	b.Emit(isa.Inst{Op: isa.JMP, Form: isa.FRel8})
	b.Emit(isa.Inst{Op: isa.JMP, Form: isa.FRel32})
	b.Func("trapsite")
	b.Emit(isa.Inst{Op: isa.TRAP, Form: isa.FNone})
	b.Func("landing")
	b.AluRR(isa.TEST, isa.RAX, isa.RAX)
	b.AluRI(isa.CMP, isa.RAX, 5)
	b.Shift(isa.SHL, isa.RAX, 0)
	b.AluRI(isa.ADD, isa.RAX, 3)
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.AluRI(isa.CMP, isa.RBX, 100)
	b.Jcc(isa.JL, "loop")
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
	return bin
}

// TestNoOpStepsEmitNoClosure compiles noOpLoop's body into one trace of
// twelve steps and requires three closures: the two ADDs and the fused
// CMP+JL. The compiled run must leave the guest exactly as the
// interpreter does.
func TestNoOpStepsEmitNoClosure(t *testing.T) {
	bin := noOpLoop(t)
	run := func(noJIT bool) *vm.VM {
		m := mem.New()
		v := vm.New(m)
		v.NoJIT = noJIT
		v.JITThreshold = 8
		if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
			t.Fatal(err)
		}
		if err := v.Run(); err != nil {
			t.Fatal(err)
		}
		return v
	}
	jit, ref := run(false), run(true)
	rows := jit.TraceRows()
	if len(rows) != 1 || rows[0].Steps != 12 {
		t.Fatalf("traces %+v, want one of 12 steps", rows)
	}
	if got := jit.TraceClosures(); !reflect.DeepEqual(got, []int{3}) {
		t.Errorf("closures per trace = %v, want [3]", got)
	}
	if jit.Regs != ref.Regs || jit.Flags != ref.Flags || jit.Cycles != ref.Cycles ||
		jit.Insts != ref.Insts || jit.ExitCode != ref.ExitCode || jit.RIP != ref.RIP {
		t.Errorf("compiled run left regs %v flags %+v cycles %d insts %d exit %d; interpreter %v %+v %d %d %d",
			jit.Regs, jit.Flags, jit.Cycles, jit.Insts, jit.ExitCode,
			ref.Regs, ref.Flags, ref.Cycles, ref.Insts, ref.ExitCode)
	}
	if ref.ExitCode != 7+3*100 {
		t.Errorf("exit = %d, want %d", ref.ExitCode, 7+3*100)
	}
}
