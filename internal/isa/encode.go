package isa

import (
	"encoding/binary"
	"fmt"
)

// RF64 binary encoding.
//
// An instruction is laid out as:
//
//	[seg prefix]? [rex]? opcode [desc]? [modrm]? [sib]? [disp8|disp32]? [imm]?
//
// Prefixes:
//
//	0x64 — FS segment override
//	0x65 — GS segment override
//	0x40..0x47 — REX-style register-extension prefix:
//	    bit 0 (B): extends ModRM.rm / SIB.base
//	    bit 1 (X): extends SIB.index
//	    bit 2 (R): extends ModRM.reg
//
// The opcode byte is the Op value itself (1..opMax-1). Zero-operand ops
// (NOP, TRAP, HLT, RET, PUSHF, POPF, CQO, LPAD) are exactly one byte; every
// other op is followed by a descriptor byte:
//
//	bits 0..3: Form
//	bits 4..5: size code (0 → 8 bytes, 1 → 1, 2 → 2, 3 → 4)
//	bits 6..7: immediate width code (0 → none, 1 → imm8, 2 → imm32, 3 → imm64)
//
// ModRM and SIB follow x86-64 semantics:
//
//	mod=3: rm is a register (register-direct forms)
//	mod=0: [base]; rm=0b100 → SIB follows; rm=0b101 → RIP+disp32
//	mod=1: [base]+disp8
//	mod=2: [base]+disp32
//	SIB: scale(2)|index(3)|base(3); index=0b100 → none (RSP cannot index);
//	     base=0b101 with mod=0 → absolute disp32, no base register
//
// Consequences relevant to the rewriter: instructions are 1 byte (the
// no-operand group) or ≥3 bytes; `jmp rel32` is 6 bytes and `jmp rel8` is
// 3 bytes, which defines the patch-tactic thresholds in internal/e9.
const (
	prefixFS  = 0x64
	prefixGS  = 0x65
	prefixREX = 0x40 // 0x40..0x47
	rexB      = 1 << 0
	rexX      = 1 << 1
	rexR      = 1 << 2
)

// MaxInstLen is the maximum encoded instruction length in bytes.
const MaxInstLen = 16

// Immediate width codes in the descriptor byte.
const (
	immNone = 0
	imm8    = 1
	imm32   = 2
	imm64   = 3
)

func sizeCode(size uint8) (uint8, error) {
	switch size {
	case 0, 8:
		return 0, nil
	case 1:
		return 1, nil
	case 2:
		return 2, nil
	case 4:
		return 3, nil
	}
	return 0, fmt.Errorf("isa: bad operand size %d", size)
}

func sizeFromCode(code uint8) uint8 {
	switch code & 3 {
	case 1:
		return 1
	case 2:
		return 2
	case 3:
		return 4
	}
	return 8
}

func isNoOperand(op Op) bool {
	switch op {
	case NOP, TRAP, HLT, RET, PUSHF, POPF, CQO, LPAD:
		return true
	}
	return false
}

// validForm reports whether form is an acceptable operand shape for op.
// The encoder and decoder share this single source of truth.
func validForm(op Op, form Form) bool {
	switch op {
	case NOP, TRAP, HLT, RET, PUSHF, POPF, CQO, LPAD:
		return form == FNone
	case MOV:
		switch form {
		case FRR, FRM, FMR, FRI, FMI:
			return true
		}
	case MOVABS:
		return form == FRI
	case MOVZX, MOVSX:
		return form == FRM
	case LEA:
		return form == FRM
	case PUSH, POP:
		return form == FR || form == FM
	case XCHG:
		return form == FRR
	case ADD, SUB, AND, OR, XOR, CMP, TEST:
		switch form {
		case FRR, FRM, FMR, FRI, FMI:
			return true
		}
	case IMUL:
		switch form {
		case FRR, FRM, FRI:
			return true
		}
	case INC, DEC, NEG, NOT:
		return form == FR || form == FM
	case SHL, SHR, SAR:
		return form == FRI || form == FRR // FRR means shift by %cl
	case UDIV, IDIV:
		return form == FR
	case JMP:
		switch form {
		case FRel8, FRel32, FR, FM:
			return true
		}
	case CALL:
		switch form {
		case FRel32, FR, FM:
			return true
		}
	case RTCALL:
		return form == FI
	default:
		if op.IsCondJump() {
			return form == FRel8 || form == FRel32
		}
	}
	return false
}

// immWidth decides the immediate width code for an instruction instance.
func immWidth(in *Inst) (uint8, error) {
	switch in.Form {
	case FRI, FMI:
		if in.Op == MOVABS {
			return imm64, nil
		}
		if in.Imm >= -128 && in.Imm <= 127 {
			return imm8, nil
		}
		if in.Imm >= -(1<<31) && in.Imm < (1<<31) {
			return imm32, nil
		}
		return 0, fmt.Errorf("isa: immediate %#x needs movabs", in.Imm)
	case FI:
		return imm32, nil
	case FRel8:
		if in.Imm < -128 || in.Imm > 127 {
			return 0, fmt.Errorf("isa: rel8 displacement %d out of range", in.Imm)
		}
		return imm8, nil
	case FRel32:
		if in.Imm < -(1<<31) || in.Imm >= (1<<31) {
			return 0, fmt.Errorf("isa: rel32 displacement %d out of range", in.Imm)
		}
		return imm32, nil
	case FRR:
		if in.Op == SHL || in.Op == SHR || in.Op == SAR {
			return immNone, nil
		}
		return immNone, nil
	}
	return immNone, nil
}

// Encode appends the binary encoding of in to dst and returns the extended
// slice. It sets in.Len as a side effect.
func Encode(dst []byte, in *Inst) ([]byte, error) {
	if in.Op == BAD || in.Op >= opMax {
		return dst, fmt.Errorf("isa: cannot encode op %v", in.Op)
	}
	if !validForm(in.Op, in.Form) {
		return dst, fmt.Errorf("isa: op %v does not accept form %v", in.Op, in.Form)
	}
	start := len(dst)

	if isNoOperand(in.Op) {
		dst = append(dst, byte(in.Op))
		in.Len = uint8(len(dst) - start)
		return dst, nil
	}

	szCode, err := sizeCode(in.Size)
	if err != nil {
		return dst, err
	}
	iw, err := immWidth(in)
	if err != nil {
		return dst, err
	}

	// Segment prefix.
	if in.HasMem() {
		switch in.Mem.Seg {
		case SegFS:
			dst = append(dst, prefixFS)
		case SegGS:
			dst = append(dst, prefixGS)
		}
	}

	// Work out REX bits and ModRM/SIB.
	var rex, modrm, sib byte
	var haveModRM, haveSIB bool
	var disp int32
	var dispWidth int // 0, 1 or 4 bytes

	setReg := func(r Reg) { // ModRM.reg field
		if r >= 8 {
			rex |= rexR
		}
		modrm |= (byte(r) & 7) << 3
	}
	setRM := func(r Reg) { // ModRM.rm field, mod=3
		modrm |= 3 << 6
		if r >= 8 {
			rex |= rexB
		}
		modrm |= byte(r) & 7
	}
	setMem := func(m Mem) error {
		haveModRM = true
		disp = m.Disp
		switch {
		case m.Base >= NumRegs && m.Base != RIP && m.Base != RegNone:
			return fmt.Errorf("isa: bad base register %v", m.Base)
		case m.Index >= NumRegs && m.Index != RegNone:
			return fmt.Errorf("isa: bad index register %v", m.Index)
		case m.Base == RIP:
			if m.HasIndex() {
				return fmt.Errorf("isa: rip-relative operand cannot have an index")
			}
			modrm |= 0b101 // mod=0, rm=101 → RIP+disp32
			dispWidth = 4
			return nil
		case !m.HasBase() && !m.HasIndex():
			// Absolute disp32: SIB with base=101, index=100, mod=0.
			modrm |= 0b100
			haveSIB = true
			sib = 0b00_100_101
			dispWidth = 4
			return nil
		}
		// General base/index forms.
		mod := byte(0)
		switch {
		case m.Disp == 0 && (byte(m.Base)&7) != 0b101:
			// mod=0 needs base low bits != 101 (that slot means RIP/abs).
			mod = 0
			dispWidth = 0
		case m.Disp >= -128 && m.Disp <= 127:
			mod = 1
			dispWidth = 1
		default:
			mod = 2
			dispWidth = 4
		}
		if !m.HasBase() {
			// Index without base: must use SIB with base=101, mod=0, disp32.
			mod = 0
			dispWidth = 4
		}
		modrm |= mod << 6
		if m.HasIndex() || !m.HasBase() || (byte(m.Base)&7) == 0b100 {
			// Need SIB (x86 rule: rm=100 selects SIB; RSP/R12 base forces it).
			modrm |= 0b100
			haveSIB = true
			switch m.Scale {
			case 0, 1:
				sib |= 0 << 6
			case 2:
				sib |= 1 << 6
			case 4:
				sib |= 2 << 6
			case 8:
				sib |= 3 << 6
			default:
				return fmt.Errorf("isa: bad scale %d", m.Scale)
			}
			if m.HasIndex() {
				if m.Index == RSP {
					return fmt.Errorf("isa: %%rsp cannot be an index register")
				}
				if m.Index >= 8 {
					rex |= rexX
				}
				sib |= (byte(m.Index) & 7) << 3
			} else {
				sib |= 0b100 << 3
			}
			if m.HasBase() {
				if m.Base >= 8 {
					rex |= rexB
				}
				sib |= byte(m.Base) & 7
			} else {
				sib |= 0b101
			}
		} else {
			if m.Base >= 8 {
				rex |= rexB
			}
			modrm |= byte(m.Base) & 7
		}
		return nil
	}

	// A register field holds one of the sixteen GPRs: masking a pseudo
	// register (RIP, RegNone) or a stray value to three bits would
	// silently encode a different register.
	switch in.Form {
	case FR, FRI, FRR, FRM, FMR:
		if in.Reg >= NumRegs {
			return dst[:start], fmt.Errorf("isa: bad register %v", in.Reg)
		}
	}
	if in.Form == FRR && in.Reg2 >= NumRegs {
		return dst[:start], fmt.Errorf("isa: bad register %v", in.Reg2)
	}

	switch in.Form {
	case FR, FRI:
		haveModRM = true
		setReg(in.Reg)
		modrm |= 3 << 6
	case FRR:
		haveModRM = true
		setReg(in.Reg)
		setRM(in.Reg2)
	case FRM, FMR:
		setReg(in.Reg)
		if err := setMem(in.Mem); err != nil {
			return dst[:start], err
		}
	case FM, FMI:
		if err := setMem(in.Mem); err != nil {
			return dst[:start], err
		}
	case FI, FRel8, FRel32:
		// no modrm
	}

	if rex != 0 {
		dst = append(dst, prefixREX|rex)
	}
	dst = append(dst, byte(in.Op))
	desc := byte(in.Form) | szCode<<4 | iw<<6
	dst = append(dst, desc)
	if haveModRM {
		dst = append(dst, modrm)
	}
	if haveSIB {
		dst = append(dst, sib)
	}
	switch dispWidth {
	case 1:
		dst = append(dst, byte(disp))
	case 4:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(disp))
	}
	switch iw {
	case imm8:
		dst = append(dst, byte(in.Imm))
	case imm32:
		dst = binary.LittleEndian.AppendUint32(dst, uint32(in.Imm))
	case imm64:
		dst = binary.LittleEndian.AppendUint64(dst, uint64(in.Imm))
	}
	in.Len = uint8(len(dst) - start)
	return dst, nil
}

// EncodeLen returns the encoded length of in without materializing it.
func EncodeLen(in *Inst) (int, error) {
	buf, err := Encode(make([]byte, 0, MaxInstLen), in)
	if err != nil {
		return 0, err
	}
	return len(buf), nil
}

// DecodeError reports bytes that are not an instruction Encode can
// produce: truncated, or with an opcode, prefix, form, operand encoding
// or immediate width Encode would not emit for the instruction. Every
// instruction Decode accepts re-encodes to exactly the bytes it
// consumed.
type DecodeError struct{ Reason string }

// Error implements the error interface.
func (e *DecodeError) Error() string { return "isa: " + e.Reason }

func decodeErr(format string, args ...any) error {
	return &DecodeError{Reason: fmt.Sprintf(format, args...)}
}

// shortErr reports a read past the end of the code at offset pos. It
// lives outside Decode's need closure so that need stays small enough
// for the compiler to inline at every read.
func shortErr(pos int) error {
	return decodeErr("truncated instruction at offset %d", pos)
}

// immWidthOK reports whether an instruction of op in form may carry the
// immediate width code iw: exactly the widths immWidth can choose.
func immWidthOK(op Op, form Form, iw uint8) bool {
	switch form {
	case FRI, FMI:
		if op == MOVABS {
			return iw == imm64
		}
		return iw == imm8 || iw == imm32
	case FI, FRel32:
		return iw == imm32
	case FRel8:
		return iw == imm8
	}
	return iw == immNone
}

// Decode decodes a single instruction from code. It returns the decoded
// instruction with Len set to the number of bytes consumed, or a
// *DecodeError.
func Decode(code []byte) (Inst, error) {
	var in Inst
	pos := 0
	need := func(n int) error {
		if pos+n > len(code) {
			return shortErr(pos)
		}
		return nil
	}

	// Prefixes: at most one segment override, then at most one REX
	// prefix with a bit set, the only sequences Encode emits.
	seg := SegNone
	var rex byte
	if err := need(1); err != nil {
		return in, err
	}
	switch code[pos] {
	case prefixFS:
		seg = SegFS
		pos++
	case prefixGS:
		seg = SegGS
		pos++
	}
	if err := need(1); err != nil {
		return in, err
	}
	if b := code[pos]; b > prefixREX && b <= prefixREX|7 {
		rex = b & 7
		pos++
		if err := need(1); err != nil {
			return in, err
		}
	}
	if b := code[pos]; b == prefixFS || b == prefixGS || b >= prefixREX && b <= prefixREX|7 {
		return in, decodeErr("redundant or misplaced prefix %#x", b)
	}

	op := Op(code[pos])
	pos++
	if op == BAD || op >= opMax {
		return in, decodeErr("bad opcode %#x", byte(op))
	}
	in.Op = op
	in.Size = 8
	in.Reg = RegNone
	in.Reg2 = RegNone
	in.Mem = Mem{Base: RegNone, Index: RegNone, Scale: 1}

	if isNoOperand(op) {
		if seg != SegNone || rex != 0 {
			return in, decodeErr("prefix on no-operand op %v", op)
		}
		in.Form = FNone
		in.Len = uint8(pos)
		return in, nil
	}

	if err := need(1); err != nil {
		return in, err
	}
	desc := code[pos]
	pos++
	in.Form = Form(desc & 0x0F)
	in.Size = sizeFromCode(desc >> 4)
	iw := desc >> 6
	if !validForm(op, in.Form) {
		return in, decodeErr("op %v does not accept form %v", op, in.Form)
	}
	if !immWidthOK(op, in.Form, iw) {
		return in, decodeErr("op %v form %v cannot carry immediate width code %d", op, in.Form, iw)
	}

	// rexUsed collects the REX bits the operands consume; Encode sets no
	// other bit.
	var rexUsed byte
	decodeMem := func(modrm byte) error {
		mod := modrm >> 6
		rm := modrm & 7
		m := &in.Mem
		m.Seg = seg
		switch {
		case mod == 3:
			return decodeErr("memory form with mod=3")
		case mod == 0 && rm == 0b101:
			m.Base = RIP
			if err := need(4); err != nil {
				return err
			}
			m.Disp = int32(binary.LittleEndian.Uint32(code[pos:]))
			pos += 4
			return nil
		case rm == 0b100:
			if err := need(1); err != nil {
				return err
			}
			sib := code[pos]
			pos++
			m.Scale = 1 << (sib >> 6)
			// index=0b100 means "no index" only without REX.X; with
			// REX.X set it denotes %r12 (x86-64 rule).
			rexUsed |= rexX
			idx := (sib >> 3) & 7
			if idx != 0b100 || rex&rexX != 0 {
				m.Index = Reg(idx)
				if rex&rexX != 0 {
					m.Index += 8
				}
			}
			base := sib & 7
			if base == 0b101 && mod == 0 {
				if m.Index == RegNone && sib != 0b00_100_101 {
					return decodeErr("absolute operand with SIB %#x", sib)
				}
				m.Base = RegNone
				if err := need(4); err != nil {
					return err
				}
				m.Disp = int32(binary.LittleEndian.Uint32(code[pos:]))
				pos += 4
				return nil
			}
			if m.Index == RegNone && base != 0b100 {
				return decodeErr("SIB byte without an index")
			}
			m.Base = Reg(base)
		default:
			m.Base = Reg(rm)
		}
		rexUsed |= rexB
		if rex&rexB != 0 {
			m.Base += 8
		}
		switch mod {
		case 1:
			if err := need(1); err != nil {
				return err
			}
			m.Disp = int32(int8(code[pos]))
			pos++
			if m.Disp == 0 && m.Base&7 != 0b101 {
				return decodeErr("zero disp8 the base does not need")
			}
		case 2:
			if err := need(4); err != nil {
				return err
			}
			m.Disp = int32(binary.LittleEndian.Uint32(code[pos:]))
			pos += 4
			if m.Disp >= -128 && m.Disp <= 127 {
				return decodeErr("disp32 %d that fits in disp8", m.Disp)
			}
		}
		return nil
	}

	switch in.Form {
	case FR, FRI:
		if err := need(1); err != nil {
			return in, err
		}
		modrm := code[pos]
		pos++
		if modrm>>6 != 3 || modrm&7 != 0 {
			return in, decodeErr("register form with ModRM %#x", modrm)
		}
		in.Reg = Reg((modrm >> 3) & 7)
		rexUsed |= rexR
		if rex&rexR != 0 {
			in.Reg += 8
		}
	case FRR:
		if err := need(1); err != nil {
			return in, err
		}
		modrm := code[pos]
		pos++
		if modrm>>6 != 3 {
			return in, decodeErr("rr form with mod=%d", modrm>>6)
		}
		in.Reg = Reg((modrm >> 3) & 7)
		in.Reg2 = Reg(modrm & 7)
		rexUsed |= rexR | rexB
		if rex&rexR != 0 {
			in.Reg += 8
		}
		if rex&rexB != 0 {
			in.Reg2 += 8
		}
	case FRM, FMR:
		if err := need(1); err != nil {
			return in, err
		}
		modrm := code[pos]
		pos++
		in.Reg = Reg((modrm >> 3) & 7)
		rexUsed |= rexR
		if rex&rexR != 0 {
			in.Reg += 8
		}
		if err := decodeMem(modrm); err != nil {
			return in, err
		}
	case FM, FMI:
		if err := need(1); err != nil {
			return in, err
		}
		modrm := code[pos]
		pos++
		if modrm&0b00_111_000 != 0 {
			return in, decodeErr("memory form with ModRM.reg=%d", (modrm>>3)&7)
		}
		if err := decodeMem(modrm); err != nil {
			return in, err
		}
	}
	if seg != SegNone && !in.HasMem() {
		return in, decodeErr("segment prefix on %v form %v", op, in.Form)
	}
	if rex&^rexUsed != 0 {
		return in, decodeErr("REX bits %#x unused by %v form %v", rex&^rexUsed, op, in.Form)
	}

	switch iw {
	case imm8:
		if err := need(1); err != nil {
			return in, err
		}
		in.Imm = int64(int8(code[pos]))
		pos++
	case imm32:
		if err := need(4); err != nil {
			return in, err
		}
		in.Imm = int64(int32(binary.LittleEndian.Uint32(code[pos:])))
		pos += 4
		if (in.Form == FRI || in.Form == FMI) && in.Imm >= -128 && in.Imm <= 127 {
			return in, decodeErr("imm32 %d that fits in imm8", in.Imm)
		}
	case imm64:
		if err := need(8); err != nil {
			return in, err
		}
		in.Imm = int64(binary.LittleEndian.Uint64(code[pos:]))
		pos += 8
	}

	in.Len = uint8(pos)
	return in, nil
}
