package asm

import (
	"testing"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

func TestBuildSimple(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 1)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if bin.Entry != relf.DefaultTextBase {
		t.Errorf("entry = %#x", bin.Entry)
	}
	text := bin.Text()
	if text == nil || len(text.Data) == 0 {
		t.Fatal("no text section")
	}
	// Decode the whole text section linearly.
	var n int
	for off := 0; off < len(text.Data); {
		in, err := isa.Decode(text.Data[off:])
		if err != nil {
			t.Fatalf("decode at %d: %v", off, err)
		}
		off += int(in.Len)
		n++
	}
	if n != 2 {
		t.Errorf("decoded %d instructions, want 2", n)
	}
}

func TestForwardAndBackwardBranches(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Jmp("fwd") // forward reference
	b.Label("back")
	b.Ret()
	b.Label("fwd")
	b.Jmp("back") // backward reference
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Verify branch targets by decoding.
	text := bin.Text()
	in1, _ := isa.Decode(text.Data)
	target1 := bin.Entry + uint64(in1.Len) + uint64(in1.Imm)
	in2, _ := isa.Decode(text.Data[int(in1.Len):])
	retAddr := bin.Entry + uint64(in1.Len)
	if target1 != retAddr+uint64(in2.Len) {
		t.Errorf("forward jump target %#x", target1)
	}
}

func TestUndefinedLabel(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Jmp("nowhere")
	if _, err := b.Build(); err == nil {
		t.Error("undefined label accepted")
	}
}

func TestDuplicateLabel(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Label("x")
	b.Label("x")
	b.Ret()
	if _, err := b.Build(); err == nil {
		t.Error("duplicate label accepted")
	}
}

func TestDuplicateGlobal(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Ret()
	b.Zero("g", 8)
	b.Zero("g", 8)
	if _, err := b.Build(); err == nil {
		t.Error("duplicate global accepted")
	}
}

// TestBSSOverflow: BSS objects whose layout runs past the top of the
// address space are an error, not a wrapped .bss and a dangling symbol.
func TestBSSOverflow(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Ret()
	b.Zero("a", 1<<63)
	b.Zero("b", 1<<63)
	if _, err := b.Build(); err == nil {
		t.Error("wrapping .bss accepted")
	}
}

func TestNoEntry(t *testing.T) {
	b := NewBuilder(Options{})
	b.Emit(isa.Inst{Op: isa.RET, Form: isa.FNone})
	if _, err := b.Build(); err == nil {
		t.Error("build without entry accepted")
	}
}

func TestGlobalLayout(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Ret()
	b.Global("a", []byte{1, 2, 3})
	b.GlobalU64("b", 0xAABBCCDD)
	b.Zero("z", 100)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	aAddr, ok := bin.Lookup("a")
	if !ok || aAddr != relf.DefaultDataBase {
		t.Errorf("a at %#x", aAddr)
	}
	bAddr, _ := bin.Lookup("b")
	if bAddr%8 != 0 || bAddr < aAddr+3 {
		t.Errorf("b at %#x", bAddr)
	}
	zAddr, _ := bin.Lookup("z")
	bss := bin.Section(".bss")
	if bss == nil || zAddr < bss.Addr || zAddr+100 > bss.End() {
		t.Errorf("z at %#x not in bss", zAddr)
	}
	// Initialized data present in .data.
	data := bin.Section(".data")
	off := bAddr - data.Addr
	if data.Data[off] != 0xDD || data.Data[off+3] != 0xAA {
		t.Errorf("b data = % x", data.Data[off:off+8])
	}
}

func TestFunctionSymbolSizes(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 1)
	b.Ret()
	b.Func("helper")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	var mainSym, helperSym relf.Symbol
	for _, s := range bin.Symbols {
		switch s.Name {
		case "main":
			mainSym = s
		case "helper":
			helperSym = s
		}
	}
	if mainSym.Size == 0 || helperSym.Addr != mainSym.Addr+mainSym.Size {
		t.Errorf("main=%+v helper=%+v", mainSym, helperSym)
	}
	if helperSym.Size != 1 { // single RET
		t.Errorf("helper size = %d", helperSym.Size)
	}
}

func TestPICUsesRIPRelative(t *testing.T) {
	b := NewBuilder(Options{PIC: true})
	b.GlobalU64("g", 5)
	b.Func("main")
	b.LoadGlobal(isa.RAX, "g", 0, 8)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(bin.Text().Data)
	if err != nil {
		t.Fatal(err)
	}
	if in.Mem.Base != isa.RIP {
		t.Errorf("PIC load uses %v base, want %%rip", in.Mem.Base)
	}
	if !bin.PIC {
		t.Error("binary not marked PIC")
	}
}

func TestNonPICUsesAbsolute(t *testing.T) {
	b := NewBuilder(Options{})
	b.GlobalU64("g", 5)
	b.Func("main")
	b.LoadGlobal(isa.RAX, "g", 0, 8)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	in, err := isa.Decode(bin.Text().Data)
	if err != nil {
		t.Fatal(err)
	}
	if !in.Mem.IsAbsolute() {
		t.Errorf("non-PIC load operand = %v, want absolute", in.Mem)
	}
	gAddr, _ := bin.Lookup("g")
	if uint64(in.Mem.Disp) != gAddr {
		t.Errorf("absolute disp %#x != symbol %#x", in.Mem.Disp, gAddr)
	}
}

func TestImportInterning(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.CallImport("malloc")
	b.CallImport("free")
	b.CallImport("malloc")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if len(bin.Imports) != 2 {
		t.Errorf("imports = %v", bin.Imports)
	}
}

func TestBuilderErrAccumulates(t *testing.T) {
	b := NewBuilder(Options{})
	b.Func("main")
	b.Jcc(isa.ADD, "x") // not a condition
	b.Ret()
	if _, err := b.Build(); err == nil {
		t.Error("invalid Jcc accepted")
	}
}
