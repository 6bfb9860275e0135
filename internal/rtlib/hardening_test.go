package rtlib_test

import (
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// buildPokeLib builds an uninstrumented library exporting
// lib_poke(addr=rdi, val=rsi): an arbitrary unchecked store — the model
// of "a memory error in unprotected code, e.g., from an uninstrumented
// library" the paper's metadata hardening defends against (§4.2).
func buildPokeLib(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{TextBase: 0x5000000, DataBase: 0x5200000})
	b.Func("lib_poke")
	b.Store(isa.RDI, 0, isa.RSI, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// buildMetaAttack: the main program allocates a 40-byte object, has the
// unprotected library overwrite the object's SIZE metadata with a huge
// value, then writes at offset 48 — past the slot's real extent, which
// the corrupted SIZE would otherwise allow.
func buildMetaAttack(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc") // neighbour keeps the target mapped
	// lib_poke(obj − 16, 1 << 40): corrupt the stored SIZE.
	b.MovRR(isa.RDI, isa.RBX)
	b.AluRI(isa.SUB, isa.RDI, 16)
	b.MovRI(isa.RSI, 0)
	b.Emit(isa.Inst{Op: isa.MOVABS, Form: isa.FRI, Reg: isa.RSI, Imm: 1 << 40})
	b.CallImport("lib_poke")
	// The secondary overflow: store at obj+48 (inside the next slot).
	b.StoreI(isa.RBX, 48, 0x41, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestMetadataHardeningDetectsCorruption(t *testing.T) {
	lib := buildPokeLib(t)
	main := buildMetaAttack(t)
	hard, _, err := redfat.Harden(main, redfat.Defaults()) // SizeCheck on
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunLinked(hard, []*relf.Binary{lib},
		rtlib.RunConfig{Abort: true})
	me, ok := err.(*vm.MemError)
	if !ok {
		t.Fatalf("corrupted metadata not detected: %v", err)
	}
	if me.Kind != vm.ErrCorruptMeta {
		t.Errorf("kind = %v, want corrupted metadata", me.Kind)
	}
}

func TestNoSizeCheckMissesCorruption(t *testing.T) {
	// The -size configuration trades exactly this detection for speed
	// (paper §4.2 "Optional code").
	lib := buildPokeLib(t)
	main := buildMetaAttack(t)
	opt := redfat.Defaults()
	opt.SizeCheck = false
	hard, _, err := redfat.Harden(main, opt)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rtlib.RunLinked(hard, []*relf.Binary{lib},
		rtlib.RunConfig{Abort: true})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("-size run flagged the forged-SIZE overflow anyway: %v %v",
			err, v.Errors)
	}
}

func TestQuarantinePolicy(t *testing.T) {
	// A use-after-free separated from the free by an intervening
	// same-class allocation: with the quarantine the slot is still
	// marked free (detected); with the quarantine disabled the slot is
	// immediately reused and the dangling write silently lands in the
	// new object.
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX) // victim
	b.MovRR(isa.RDI, isa.RAX)
	b.CallImport("free")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc") // same class: reuses the slot if no quarantine
	b.MovRR(isa.R13, isa.RAX)
	b.StoreI(isa.RBX, 0, 0x42, 8) // dangling write
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}

	_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrUseAfterFree {
		t.Errorf("quarantined UaF not detected: %v", err)
	}

	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Abort: true, Knobs: rtlib.Knobs{QuarantineBytes: -1},
	})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("without quarantine the reused-slot write should be silent: %v %v",
			err, v.Errors)
	}
}

func TestRandomizedHeapStillCorrect(t *testing.T) {
	// Randomized placement must not change program results or break
	// detection.
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.R15, 0)
	b.MovRI(isa.R14, 0)
	b.Label("loop")
	b.MovRI(isa.RDI, 48)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.Store(isa.RBX, 0, isa.R14, 8)
	b.AluRM(isa.ADD, isa.R15, asm.MemBID(isa.RBX, isa.RegNone, 1, 0), 8)
	b.MovRR(isa.RDI, isa.RBX)
	b.CallImport("free")
	b.AluRI(isa.ADD, isa.R14, 1)
	b.AluRI(isa.CMP, isa.R14, 64)
	b.Jcc(isa.JL, "loop")
	b.MovRR(isa.RAX, isa.R15)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	rnd, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Abort: true, RandomizeHeap: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.ExitCode != rnd.ExitCode {
		t.Errorf("randomization changed the result: %d vs %d",
			plain.ExitCode, rnd.ExitCode)
	}
}
