package isa

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"unsafe"
)

func roundTrip(t *testing.T, in Inst) Inst {
	t.Helper()
	buf, err := Encode(nil, &in)
	if err != nil {
		t.Fatalf("Encode(%v): %v", in.String(), err)
	}
	if int(in.Len) != len(buf) {
		t.Fatalf("Encode(%v): Len=%d, buffer=%d", in.String(), in.Len, len(buf))
	}
	out, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(% x) of %v: %v", buf, in.String(), err)
	}
	if out.Len != in.Len {
		t.Fatalf("decode length %d != encode length %d for %v", out.Len, in.Len, in.String())
	}
	return out
}

func TestEncodeDecodeBasic(t *testing.T) {
	cases := []Inst{
		{Op: NOP, Form: FNone},
		{Op: TRAP, Form: FNone},
		{Op: RET, Form: FNone},
		{Op: HLT, Form: FNone},
		{Op: PUSHF, Form: FNone},
		{Op: POPF, Form: FNone},
		{Op: MOV, Form: FRR, Reg: RBX, Reg2: RAX},
		{Op: MOV, Form: FRR, Reg: R15, Reg2: R8},
		{Op: MOV, Form: FRI, Reg: RCX, Imm: 42},
		{Op: MOV, Form: FRI, Reg: RCX, Imm: -70000},
		{Op: MOVABS, Form: FRI, Reg: RDX, Imm: 0x1234567890},
		{Op: MOV, Form: FRM, Reg: RAX, Size: 8,
			Mem: Mem{Base: RBX, Index: RCX, Scale: 4, Disp: 0x10}},
		{Op: MOV, Form: FMR, Reg: RAX, Size: 4,
			Mem: Mem{Base: R13, Index: RegNone, Scale: 1}},
		{Op: MOV, Form: FMR, Reg: R9, Size: 1,
			Mem: Mem{Base: RSP, Index: RegNone, Scale: 1, Disp: -8}},
		{Op: MOV, Form: FMI, Size: 8, Imm: 0,
			Mem: Mem{Base: RAX, Index: RegNone, Scale: 1, Disp: 8}},
		{Op: MOV, Form: FRM, Reg: RSI, Size: 8,
			Mem: Mem{Base: RIP, Index: RegNone, Scale: 1, Disp: 0x2000}},
		{Op: MOV, Form: FRM, Reg: RDI, Size: 8,
			Mem: Mem{Base: RegNone, Index: RegNone, Scale: 1, Disp: 0x601000}},
		{Op: MOV, Form: FRM, Reg: RDI, Size: 8,
			Mem: Mem{Base: RegNone, Index: R12, Scale: 8, Disp: 0x601000}},
		{Op: MOV, Form: FRM, Reg: RDI, Size: 2,
			Mem: Mem{Seg: SegFS, Base: RAX, Index: RegNone, Scale: 1, Disp: 0x28}},
		{Op: LEA, Form: FRM, Reg: RAX,
			Mem: Mem{Base: RBP, Index: RDX, Scale: 2, Disp: -4}},
		{Op: ADD, Form: FRR, Reg: RAX, Reg2: RBX},
		{Op: ADD, Form: FRI, Reg: RSP, Imm: 32},
		{Op: ADD, Form: FMR, Reg: RCX, Size: 8,
			Mem: Mem{Base: RDI, Index: RegNone, Scale: 1}},
		{Op: CMP, Form: FRM, Reg: RAX, Size: 8,
			Mem: Mem{Base: RBX, Index: RegNone, Scale: 1, Disp: 127}},
		{Op: CMP, Form: FRI, Reg: RAX, Imm: 1000},
		{Op: TEST, Form: FRR, Reg: RAX, Reg2: RAX},
		{Op: IMUL, Form: FRR, Reg: RDX, Reg2: RSI},
		{Op: IMUL, Form: FRI, Reg: RDX, Imm: 24},
		{Op: SHL, Form: FRI, Reg: RAX, Imm: 3},
		{Op: SHR, Form: FRR, Reg: RAX, Reg2: RCX},
		{Op: INC, Form: FR, Reg: R14},
		{Op: DEC, Form: FM, Size: 4,
			Mem: Mem{Base: RBX, Index: RegNone, Scale: 1, Disp: 1 << 20}},
		{Op: NEG, Form: FR, Reg: RAX},
		{Op: NOT, Form: FR, Reg: RDX},
		{Op: UDIV, Form: FR, Reg: RCX},
		{Op: IDIV, Form: FR, Reg: RBX},
		{Op: PUSH, Form: FR, Reg: RBP},
		{Op: POP, Form: FR, Reg: RBP},
		{Op: PUSH, Form: FM, Size: 8, Mem: Mem{Base: RAX, Index: RegNone, Scale: 1}},
		{Op: MOVZX, Form: FRM, Reg: RAX, Size: 1,
			Mem: Mem{Base: RSI, Index: RDI, Scale: 1}},
		{Op: MOVSX, Form: FRM, Reg: RAX, Size: 4,
			Mem: Mem{Base: RSI, Index: RegNone, Scale: 1, Disp: 3}},
		{Op: XCHG, Form: FRR, Reg: RAX, Reg2: R11},
		{Op: JMP, Form: FRel32, Imm: 0x1000},
		{Op: JMP, Form: FRel8, Imm: -20},
		{Op: JMP, Form: FR, Reg: RAX},
		{Op: JMP, Form: FM, Size: 8, Mem: Mem{Base: RegNone, Index: RBX, Scale: 8, Disp: 0x400000}},
		{Op: CALL, Form: FRel32, Imm: -0x200},
		{Op: CALL, Form: FR, Reg: R10},
		{Op: JE, Form: FRel32, Imm: 64},
		{Op: JNE, Form: FRel8, Imm: 8},
		{Op: JA, Form: FRel32, Imm: 1 << 20},
		{Op: RTCALL, Form: FI, Imm: 0x1234},
	}
	for _, in := range cases {
		out := roundTrip(t, in)
		if out.Op != in.Op || out.Form != in.Form {
			t.Errorf("round trip %v: got %v", in.String(), out.String())
			continue
		}
		if in.Form == FRR && (out.Reg != in.Reg || out.Reg2 != in.Reg2) {
			t.Errorf("round trip %v: regs %v,%v", in.String(), out.Reg, out.Reg2)
		}
		if in.HasMem() {
			want, got := in.Mem, out.Mem
			if want.Scale == 0 {
				want.Scale = 1
			}
			if got != want {
				t.Errorf("round trip %v: mem %v != %v", in.String(), got, want)
			}
			if out.Size != normSize(in.Size) {
				t.Errorf("round trip %v: size %d != %d", in.String(), out.Size, in.Size)
			}
		}
		switch in.Form {
		case FRI, FMI, FI, FRel8, FRel32:
			if out.Imm != in.Imm {
				t.Errorf("round trip %v: imm %#x != %#x", in.String(), out.Imm, in.Imm)
			}
		}
	}
}

func normSize(s uint8) uint8 {
	if s == 0 {
		return 8
	}
	return s
}

func TestOneByteInstructions(t *testing.T) {
	for _, op := range []Op{NOP, TRAP, HLT, RET, PUSHF, POPF, CQO} {
		in := Inst{Op: op, Form: FNone}
		buf, err := Encode(nil, &in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", op, err)
		}
		if len(buf) != 1 {
			t.Errorf("%v encodes to %d bytes, want 1", op, len(buf))
		}
	}
}

func TestJumpEncodingLengths(t *testing.T) {
	short := Inst{Op: JMP, Form: FRel8, Imm: 5}
	long := Inst{Op: JMP, Form: FRel32, Imm: 5}
	sb, err := Encode(nil, &short)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Encode(nil, &long)
	if err != nil {
		t.Fatal(err)
	}
	// These lengths are load-bearing for the e9 patch tactics.
	if len(sb) != 3 {
		t.Errorf("jmp rel8 is %d bytes, want 3", len(sb))
	}
	if len(lb) != 6 {
		t.Errorf("jmp rel32 is %d bytes, want 6", len(lb))
	}
}

func TestEncodeErrors(t *testing.T) {
	cases := []Inst{
		{Op: BAD, Form: FNone},
		{Op: RET, Form: FR, Reg: RAX},                // no-operand op with operand
		{Op: MOV, Form: FRI, Reg: RAX, Imm: 1 << 40}, // needs movabs
		{Op: JMP, Form: FRel8, Imm: 300},             // rel8 overflow
		{Op: LEA, Form: FMR, Reg: RAX, Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}, // lea store
		{Op: MOV, Form: FRM, Reg: RAX,
			Mem: Mem{Base: RBX, Index: RSP, Scale: 1}}, // rsp index
		{Op: MOV, Form: FRM, Reg: RAX,
			Mem: Mem{Base: RIP, Index: RCX, Scale: 1}}, // rip with index
		{Op: MOV, Form: FRM, Reg: RAX,
			Mem: Mem{Base: RBX, Index: RCX, Scale: 3}}, // bad scale
		{Op: RTCALL, Form: FRel32, Imm: 0},
		// A register field outside the sixteen GPRs, which masking to
		// three bits would turn into another register.
		{Op: PUSH, Form: FR, Reg: RIP, Size: 8},       // push %rip → %rsi
		{Op: MOV, Form: FRR, Reg: RAX, Reg2: RegNone}, // rm field
		{Op: MOV, Form: FRI, Reg: Reg(16), Imm: 1},    // reg field
		{Op: MOV, Form: FMR, Reg: RIP,
			Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}, // reg beside memory
		{Op: MOV, Form: FRM, Reg: RAX,
			Mem: Mem{Base: Reg(20), Index: RegNone, Scale: 1, Disp: 8}}, // base
		{Op: MOV, Form: FRM, Reg: RAX,
			Mem: Mem{Base: RBX, Index: RIP, Scale: 1}}, // index
		{Op: MOV, Form: FRM, Reg: RAX,
			Mem: Mem{Base: RegNone, Index: Reg(17), Scale: 2}}, // index without base
	}
	for _, in := range cases {
		if _, err := Encode(nil, &in); err == nil {
			t.Errorf("Encode(%+v) succeeded, want error", in)
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	// The longest encoding: segment and REX prefixes, SIB, disp32 and
	// imm32 around a store of an immediate.
	longest := Inst{Op: MOV, Form: FMI, Size: 4, Imm: 1 << 20,
		Mem: Mem{Seg: SegFS, Base: R12, Index: R13, Scale: 8, Disp: 0x1000}}
	code, err := Encode(nil, &longest)
	if err != nil {
		t.Fatal(err)
	}
	if in, err := Decode(code); err != nil || in.Len != 14 || in.String() != longest.String() {
		t.Fatalf("Decode(% x) = %s (len %d), %v; want %s in 14 bytes",
			code, in.String(), in.Len, err, longest.String())
	}

	mov := []byte{byte(MOV), byte(FRM), 0x83, 0, 0x10, 0, 0} // mov 0x1000(%rbx), %rax
	rex := func(n int, tail []byte) []byte {
		return append(bytes.Repeat([]byte{prefixREX | rexB}, n), tail...)
	}
	cases := [][]byte{
		{},                       // empty
		{0x00},                   // BAD opcode
		{0xF0},                   // out-of-range opcode
		{byte(MOV)},              // missing descriptor
		{byte(MOV), byte(FRR)},   // missing modrm
		{0x40},                   // lone REX prefix
		{0x64, byte(RET)},        // prefix on no-operand op
		{byte(MOV), byte(FRel8)}, // invalid form for op
		{byte(JMP), byte(FRel32) | imm32<<6, 1, 2}, // truncated imm32
		rex(10, mov),  // 17 bytes, over MaxInstLen
		rex(249, mov), // 256 bytes: Len would wrap to 0
		rex(9, mov),   // 16 bytes of one mov behind nine REX prefixes
		{byte(JMP), byte(FRel32) | imm64<<6, 1, 0, 0, 0, 0, 0, 0, 0},    // rel32 with an imm64
		{byte(JE), byte(FRel8) | imm32<<6, 1, 0, 0, 0},                  // rel8 with an imm32
		{byte(RTCALL), byte(FI) | imm8<<6, 1},                           // FI with an imm8
		{byte(LEA), byte(FRM) | imm32<<6, 0x03, 1, 0, 0, 0},             // lea with an imm32
		{byte(MOV), byte(FRR) | imm8<<6, 0xC3, 1},                       // rr form with an imm8
		{byte(MOV), byte(FRI), 0xC0},                                    // FRI without immediate
		{byte(ADD), byte(FRI) | imm64<<6, 0xC0, 1, 0, 0, 0, 0, 0, 0, 0}, // imm64 outside MOVABS
		{byte(MOVABS), byte(FRI) | imm32<<6, 0xC0, 1, 0, 0, 0},          // movabs with an imm32

		// Encodings Encode never emits (each decoded at one time, and
		// re-encoded differently):
		rex(2, mov),                                         // repeated REX prefix
		{0x64, 0x65, 0x64, 0x08, 0x04, 0x03},                // repeated segment prefixes
		{0x41, 0x64, byte(MOV), byte(FRM), 0x03},            // REX before the segment prefix
		{prefixREX, byte(MOV), byte(FRM), 0x03},             // REX prefix with no bit set
		{0x08, 0x04, 0xC3},                                  // mod=3 in a memory form
		{0x64, byte(MOV), byte(FRI) | imm8<<6, 0xC0, 1},     // segment prefix, no memory operand
		{0x42, byte(MOV), byte(FRM), 0x03},                  // REX.X without a SIB index
		{0x44, byte(PUSH), byte(FM), 0x03},                  // REX.R on a form without ModRM.reg
		{byte(PUSH), byte(FM), 0x1B},                        // ModRM.reg set on a memory-only form
		{byte(MOV), byte(FRI) | imm8<<6, 0xC3, 1},           // ModRM.rm set on a register form
		{byte(MOV), byte(FRM), 0x04, 0x23},                  // SIB without an index
		{byte(MOV), byte(FRM), 0x04, 0x65, 0, 0, 0, 0},      // absolute operand with a scale
		{byte(MOV), byte(FRM), 0x43, 0},                     // zero disp8 on %rbx
		{byte(MOV), byte(FRM), 0x83, 0x10, 0, 0, 0},         // disp32 that fits in disp8
		{byte(MOV), byte(FRI) | imm32<<6, 0xC0, 5, 0, 0, 0}, // imm32 that fits in imm8
	}
	for _, code := range cases {
		_, err := Decode(code)
		var de *DecodeError
		if !errors.As(err, &de) {
			t.Errorf("Decode(% x) = %v, want a *DecodeError", code, err)
		}
	}
}

// randomInst builds a random but valid instruction for property testing.
func randomInst(r *rand.Rand) Inst {
	regs := []Reg{RAX, RCX, RDX, RBX, RSP, RBP, RSI, RDI, R8, R9, R10, R11, R12, R13, R14, R15}
	idxRegs := []Reg{RAX, RCX, RDX, RBX, RBP, RSI, RDI, R8, R9, R10, R11, R12, R13, R14, R15, RegNone}
	sizes := []uint8{1, 2, 4, 8}
	scales := []uint8{1, 2, 4, 8}
	segs := []Seg{SegNone, SegNone, SegNone, SegFS, SegGS}

	randMem := func() Mem {
		m := Mem{
			Seg:   segs[r.Intn(len(segs))],
			Base:  regs[r.Intn(len(regs))],
			Index: idxRegs[r.Intn(len(idxRegs))],
			Scale: scales[r.Intn(len(scales))],
			Disp:  int32(r.Int63()),
		}
		switch r.Intn(5) {
		case 0:
			m.Base = RegNone // index-only or absolute
		case 1:
			m.Base = RIP
			m.Index = RegNone
		case 2:
			m.Disp = int32(int8(r.Int63())) // small disp
		case 3:
			m.Disp = 0
		}
		return m
	}

	type shape struct {
		op   Op
		form Form
	}
	shapes := []shape{
		{MOV, FRR}, {MOV, FRM}, {MOV, FMR}, {MOV, FRI}, {MOV, FMI},
		{MOVABS, FRI}, {MOVZX, FRM}, {MOVSX, FRM}, {LEA, FRM},
		{PUSH, FR}, {POP, FR}, {PUSH, FM}, {XCHG, FRR},
		{ADD, FRR}, {ADD, FRM}, {ADD, FMR}, {ADD, FRI}, {ADD, FMI},
		{SUB, FRM}, {AND, FMR}, {OR, FRI}, {XOR, FRR},
		{CMP, FRM}, {CMP, FRI}, {TEST, FRR},
		{IMUL, FRR}, {IMUL, FRI}, {INC, FR}, {DEC, FM},
		{NEG, FR}, {NOT, FR}, {SHL, FRI}, {SHR, FRR}, {SAR, FRI},
		{UDIV, FR}, {IDIV, FR},
		{JMP, FRel8}, {JMP, FRel32}, {JMP, FR}, {JMP, FM},
		{CALL, FRel32}, {CALL, FR},
		{JE, FRel32}, {JNE, FRel8}, {JG, FRel32}, {JBE, FRel8},
		{RTCALL, FI},
	}
	s := shapes[r.Intn(len(shapes))]
	in := Inst{Op: s.op, Form: s.form, Reg: RegNone, Reg2: RegNone,
		Mem: Mem{Base: RegNone, Index: RegNone, Scale: 1}}
	switch s.form {
	case FR, FRI:
		in.Reg = regs[r.Intn(len(regs))]
	case FRR:
		in.Reg = regs[r.Intn(len(regs))]
		in.Reg2 = regs[r.Intn(len(regs))]
	case FRM, FMR:
		in.Reg = regs[r.Intn(len(regs))]
		in.Mem = randMem()
	case FM, FMI:
		in.Mem = randMem()
	}
	if in.HasMem() || s.form == FMR || s.form == FRM {
		in.Size = sizes[r.Intn(len(sizes))]
	} else {
		in.Size = 8
	}
	switch s.form {
	case FRI, FMI:
		if s.op == MOVABS {
			in.Imm = int64(r.Uint64())
		} else if s.op == SHL || s.op == SAR {
			in.Imm = int64(r.Intn(64))
		} else {
			in.Imm = int64(int32(r.Uint32()))
		}
	case FI:
		in.Imm = int64(int32(r.Uint32()))
	case FRel8:
		in.Imm = int64(int8(r.Uint32()))
	case FRel32:
		in.Imm = int64(int32(r.Uint32()))
	}
	// Respect encoding constraints the encoder rejects.
	if in.Mem.Base == RIP {
		in.Mem.Index = RegNone
	}
	if in.Mem.Index == RSP {
		in.Mem.Index = RegNone
	}
	return in
}

// TestQuickRoundTrip is the central encoder/decoder property:
// Decode(Encode(i)) == i for every valid instruction.
func TestQuickRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	f := func() bool {
		in := randomInst(r)
		buf, err := Encode(nil, &in)
		if err != nil {
			t.Fatalf("Encode(%v): %v", in.String(), err)
		}
		out, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v = % x): %v", in.String(), buf, err)
		}
		// Normalize fields that legitimately canonicalize.
		want := in
		want.Len = out.Len
		if !want.HasMem() {
			want.Mem = Mem{Base: RegNone, Index: RegNone, Scale: 1}
		}
		if want.Mem.Scale == 0 {
			want.Mem.Scale = 1
		}
		if !want.Mem.HasIndex() {
			want.Mem.Scale = out.Mem.Scale // scale is meaningless without index
		}
		if want.Size == 0 {
			want.Size = 8
		}
		switch want.Form {
		case FR, FRI:
			want.Reg2 = RegNone
		case FNone, FI, FRel8, FRel32:
			want.Reg, want.Reg2 = RegNone, RegNone
		}
		if out != want {
			t.Logf("in:  %+v", want)
			t.Logf("out: %+v", out)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeLenMatchesBytes verifies that decoding consumes exactly the
// encoded bytes even when followed by other data.
func TestDecodeLenMatchesBytes(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		in := randomInst(r)
		buf, err := Encode(nil, &in)
		if err != nil {
			t.Fatal(err)
		}
		enc := len(buf)
		// Append garbage; decode must stop at the instruction boundary.
		buf = append(buf, 0xEE, 0xFF, 0x01)
		out, err := Decode(buf)
		if err != nil {
			t.Fatalf("Decode(%v): %v", in.String(), err)
		}
		if int(out.Len) != enc {
			t.Fatalf("%v: decoded len %d, encoded len %d", in.String(), out.Len, enc)
		}
		if enc > MaxInstLen {
			t.Fatalf("%v: length %d exceeds MaxInstLen", in.String(), enc)
		}
	}
}

func TestMemString(t *testing.T) {
	m := Mem{Seg: SegGS, Disp: 0x10, Base: RAX, Index: RBX, Scale: 4}
	if got := m.String(); got != "%gs:0x10(%rax,%rbx,4)" {
		t.Errorf("Mem.String() = %q", got)
	}
	abs := Mem{Disp: 0x601000, Base: RegNone, Index: RegNone}
	if got := abs.String(); got != "0x601000" {
		t.Errorf("absolute Mem.String() = %q", got)
	}
}

func TestAccessClassification(t *testing.T) {
	load := Inst{Op: MOV, Form: FRM, Reg: RAX, Size: 8,
		Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}
	store := Inst{Op: MOV, Form: FMR, Reg: RAX, Size: 4,
		Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}
	lea := Inst{Op: LEA, Form: FRM, Reg: RAX,
		Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}
	rmw := Inst{Op: ADD, Form: FMR, Reg: RAX, Size: 8,
		Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}
	cmp := Inst{Op: CMP, Form: FMR, Reg: RAX, Size: 8,
		Mem: Mem{Base: RBX, Index: RegNone, Scale: 1}}

	if !load.Reads() || load.Writes() {
		t.Error("load misclassified")
	}
	if store.Reads() || !store.Writes() {
		t.Error("store misclassified")
	}
	if store.MemWidth() != 4 {
		t.Errorf("store width = %d", store.MemWidth())
	}
	if lea.IsMemAccess() {
		t.Error("lea classified as memory access")
	}
	if !rmw.Reads() || !rmw.Writes() {
		t.Error("read-modify-write misclassified")
	}
	if !cmp.Reads() || cmp.Writes() {
		t.Error("cmp-to-mem misclassified")
	}
}

func TestRegNames(t *testing.T) {
	for r := Reg(0); r < NumRegs; r++ {
		got, ok := RegFromName(r.String())
		if !ok || got != r {
			t.Errorf("RegFromName(%q) = %v, %v", r.String(), got, ok)
		}
	}
	if _, ok := RegFromName("%bogus"); ok {
		t.Error("RegFromName accepted bogus register")
	}
	if r, ok := RegFromName("rip"); !ok || r != RIP {
		t.Error("RegFromName(rip) failed")
	}
}

func TestOpNames(t *testing.T) {
	for op := NOP; op < opMax; op++ {
		got, ok := OpFromName(op.String())
		if !ok || got != op {
			t.Errorf("OpFromName(%q) = %v, %v", op.String(), got, ok)
		}
	}
}

// TestInstPacksInto32Bytes holds Inst's layout: a field added after Mem,
// or a one-byte field moved away from the others, pads it past 32 bytes,
// and every cached block and disassembly pays for that per instruction.
func TestInstPacksInto32Bytes(t *testing.T) {
	if got := unsafe.Sizeof(Inst{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Inst{}) = %d, want 32", got)
	}
}
