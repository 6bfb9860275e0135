// Package isa defines the RF64 instruction set architecture: an x86-64
// subset used throughout RedFat-Go as the binary-code substrate.
//
// RF64 mirrors the properties of x86-64 that the RedFat paper's techniques
// depend on:
//
//   - sixteen 64-bit general-purpose registers plus RIP and an EFLAGS-style
//     flags register;
//   - memory operands of the general x86-64 form
//     seg:disp(base, index, scale), combining pointer arithmetic and memory
//     access in a single instruction (paper §3, "Pointer arithmetic");
//   - a variable-length binary encoding (1..16 bytes) with REX-style
//     prefixes, ModRM/SIB operand bytes, and rel8/rel32 branch forms, so
//     that trampoline patch tactics (jmp rel32, jmp rel8, 1-byte trap) face
//     the same constraints as on real x86-64.
//
// The byte-level opcode map is RF64's own (documented in encode.go); the
// operand model and ModRM/SIB semantics follow x86-64.
package isa

import "fmt"

// Reg is a general-purpose register number. The numbering follows x86-64:
// the low 3 bits go in ModRM/SIB fields and the 4th bit in the REX-style
// prefix.
type Reg uint8

// General purpose registers.
const (
	RAX Reg = iota
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// RegNone marks an absent base or index register in a memory operand.
	RegNone Reg = 0xFF
	// RIP is the pseudo register for RIP-relative memory operands.
	RIP Reg = 0xFE
)

// NumRegs is the number of addressable general-purpose registers.
const NumRegs = 16

var regNames = [NumRegs]string{
	"rax", "rcx", "rdx", "rbx", "rsp", "rbp", "rsi", "rdi",
	"r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
}

// String returns the AT&T-style name of the register (without size suffix).
func (r Reg) String() string {
	switch {
	case r < NumRegs:
		return "%" + regNames[r]
	case r == RIP:
		return "%rip"
	case r == RegNone:
		return "%none"
	}
	return fmt.Sprintf("%%bad(%d)", uint8(r))
}

// RegFromName maps a register name (with or without the leading '%') to a
// Reg. The boolean reports whether the name was recognized.
func RegFromName(name string) (Reg, bool) {
	if len(name) > 0 && name[0] == '%' {
		name = name[1:]
	}
	for i, n := range regNames {
		if n == name {
			return Reg(i), true
		}
	}
	if name == "rip" {
		return RIP, true
	}
	return RegNone, false
}

// Seg is a segment override. RF64 supports the two segment overrides that
// survive into x86-64 (FS and GS); everything else uses the flat address
// space.
type Seg uint8

// Segment override values.
const (
	SegNone Seg = iota
	SegFS
	SegGS
)

// String returns the AT&T segment prefix ("%fs:", "%gs:" or "").
func (s Seg) String() string {
	switch s {
	case SegFS:
		return "%fs:"
	case SegGS:
		return "%gs:"
	}
	return ""
}

// Mem is a memory operand: the 5-tuple seg:disp(base, index, scale) of
// paper §4.1. Semantically it denotes the address
//
//	segbase(Seg) + Disp + value(Base) + value(Index)*Scale
//
// with absent components contributing zero (and Scale one).
type Mem struct {
	Seg   Seg
	Disp  int32
	Base  Reg // RegNone if absent; RIP for RIP-relative
	Index Reg // RegNone if absent; never RSP/RIP
	Scale uint8
}

// HasBase reports whether the operand has a base register (including RIP).
func (m Mem) HasBase() bool { return m.Base != RegNone }

// HasIndex reports whether the operand has an index register.
func (m Mem) HasIndex() bool { return m.Index != RegNone }

// IsAbsolute reports whether the operand is a bare disp32 absolute address.
func (m Mem) IsAbsolute() bool { return !m.HasBase() && !m.HasIndex() }

// String renders the operand in AT&T syntax, e.g. "%gs:0x10(%rax,%rbx,4)".
func (m Mem) String() string {
	s := m.Seg.String()
	if m.Disp != 0 || m.IsAbsolute() {
		s += fmt.Sprintf("%#x", m.Disp)
	}
	if !m.HasBase() && !m.HasIndex() {
		return s
	}
	s += "("
	if m.HasBase() {
		s += m.Base.String()
	}
	if m.HasIndex() {
		s += "," + m.Index.String()
		s += fmt.Sprintf(",%d", m.Scale)
	}
	return s + ")"
}

// Op is an RF64 operation mnemonic.
type Op uint8

// Operations. The set is a pragmatic x86-64 subset: enough for compiled
// C/C++/Fortran-style code (the workload generators), the trampoline code
// emitted by the rewriter, and the runtime-call glue.
const (
	BAD Op = iota

	// No-operand instructions.
	NOP   // 1-byte no-op
	TRAP  // 1-byte trap; consults the VM patch table (models int3 punning)
	HLT   // halt the machine (process exit)
	RET   // pop return address, jump
	PUSHF // push flags
	POPF  // pop flags
	CQO   // sign-extend RAX into RDX (for IDIV)

	// Data movement.
	MOV    // general move (reg/reg, load, store, imm)
	MOVABS // 64-bit immediate load into register
	MOVZX  // zero-extending load (size = source width)
	MOVSX  // sign-extending load (size = source width)
	LEA    // load effective address
	PUSH   // push register
	POP    // pop register
	XCHG   // exchange reg with reg/mem

	// ALU. Two-operand forms; CMP/TEST set flags only.
	ADD
	SUB
	AND
	OR
	XOR
	CMP
	TEST
	IMUL // two-operand signed multiply (reg ← reg * rm)
	INC
	DEC
	NEG
	NOT
	SHL // shift by imm8 or by CL
	SHR
	SAR
	UDIV // unsigned divide: RDX:RAX / rm → RAX quot, RDX rem
	IDIV // signed divide: RDX:RAX / rm → RAX quot, RDX rem

	// Control flow.
	JMP  // rel8/rel32, or indirect through reg/mem
	CALL // rel32 or indirect through reg/mem
	JE
	JNE
	JL
	JLE
	JG
	JGE
	JB
	JBE
	JA
	JAE
	JS
	JNS
	JO
	JNO

	// RTCALL invokes a host runtime function identified by a 32-bit
	// immediate. It models both PLT calls into shared libraries (libc,
	// the LD_PRELOADed libredfat allocator) and the rewriter-emitted
	// calls into the libredfat check routines.
	RTCALL

	// LPAD is a CET-style landing pad (models ENDBR64): a 1-byte no-op
	// that marks a legal indirect-branch target. When a binary opts in
	// via its .rf.config, indirect JMP/CALL to an address whose first
	// byte is not an LPAD faults in the VM, which is what makes the
	// marker-based indirect-flow recovery in internal/cfg sound.
	LPAD

	opMax
)

// NumOps is the number of defined operations (including BAD); Op values
// are always < NumOps, so it sizes per-opcode lookup tables.
const NumOps = int(opMax)

var opNames = [...]string{
	BAD: "(bad)", NOP: "nop", TRAP: "trap", HLT: "hlt", RET: "ret",
	PUSHF: "pushf", POPF: "popf", CQO: "cqo",
	MOV: "mov", MOVABS: "movabs", MOVZX: "movzx", MOVSX: "movsx",
	LEA: "lea", PUSH: "push", POP: "pop", XCHG: "xchg",
	ADD: "add", SUB: "sub", AND: "and", OR: "or", XOR: "xor",
	CMP: "cmp", TEST: "test", IMUL: "imul", INC: "inc", DEC: "dec",
	NEG: "neg", NOT: "not", SHL: "shl", SHR: "shr", SAR: "sar",
	UDIV: "udiv", IDIV: "idiv",
	JMP: "jmp", CALL: "call",
	JE: "je", JNE: "jne", JL: "jl", JLE: "jle", JG: "jg", JGE: "jge",
	JB: "jb", JBE: "jbe", JA: "ja", JAE: "jae", JS: "js", JNS: "jns",
	JO: "jo", JNO: "jno",
	RTCALL: "rtcall",
	LPAD:   "lpad",
}

// String returns the mnemonic.
func (o Op) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpFromName maps a mnemonic back to an Op.
func OpFromName(name string) (Op, bool) {
	for op, n := range opNames {
		if n == name && Op(op) != BAD {
			return Op(op), true
		}
	}
	return BAD, false
}

// IsCondJump reports whether o is a conditional jump.
func (o Op) IsCondJump() bool { return o >= JE && o <= JNO }

// IsBranch reports whether o transfers control (jump, call, ret, halt).
func (o Op) IsBranch() bool {
	return o == JMP || o == CALL || o == RET || o == HLT || o.IsCondJump()
}

// Form describes the operand shape of an instruction instance.
type Form uint8

// Instruction operand forms.
const (
	FNone  Form = iota // no operands
	FR                 // single register
	FM                 // single memory operand
	FRR                // reg ← reg (dst, src)
	FRM                // reg ← mem (load / lea / alu-from-mem)
	FMR                // mem ← reg (store / alu-to-mem)
	FRI                // reg ← imm (or reg op= imm)
	FMI                // mem ← imm (or mem op= imm)
	FI                 // immediate only (RTCALL)
	FRel8              // rel8 branch
	FRel32             // rel32 branch
)

// String names the form for diagnostics.
func (f Form) String() string {
	switch f {
	case FNone:
		return "none"
	case FR:
		return "r"
	case FM:
		return "m"
	case FRR:
		return "rr"
	case FRM:
		return "rm"
	case FMR:
		return "mr"
	case FRI:
		return "ri"
	case FMI:
		return "mi"
	case FI:
		return "i"
	case FRel8:
		return "rel8"
	case FRel32:
		return "rel32"
	}
	return fmt.Sprintf("form(%d)", uint8(f))
}

// Inst is a decoded (or not-yet-encoded) RF64 instruction. The one-byte
// fields sit together, ahead of Mem, so an Inst packs into 32 bytes:
// every cached block and every disassembly holds one per instruction.
type Inst struct {
	Op   Op
	Form Form
	Size uint8 // memory access width in bytes (1, 2, 4, 8); 8 if N/A
	Reg  Reg   // register operand (dst for loads, src for stores)
	Reg2 Reg   // second register operand (src for FRR)
	Len  uint8 // encoded length in bytes; set by Decode and by Encode
	Mem  Mem   // memory operand (valid for FM/FRM/FMR/FMI)
	Imm  int64 // immediate or branch displacement
}

// HasMem reports whether the instruction has a memory operand.
func (in *Inst) HasMem() bool {
	switch in.Form {
	case FM, FRM, FMR, FMI:
		return true
	}
	return false
}

// IsMemAccess reports whether the instruction actually reads or writes
// memory through its memory operand (LEA has a memory operand but performs
// no access; branches through memory do access it).
func (in *Inst) IsMemAccess() bool {
	return in.HasMem() && in.Op != LEA
}

// MemWidth returns the memory access width in bytes, or 0 if the
// instruction does not access memory.
func (in *Inst) MemWidth() uint16 {
	if !in.IsMemAccess() {
		return 0
	}
	if in.Size == 0 {
		return 8
	}
	return uint16(in.Size)
}

// Writes reports whether the memory operand is written. CMP and TEST only
// read; MOV/ALU in FMR/FMI forms write (ALU also reads).
func (in *Inst) Writes() bool {
	if !in.IsMemAccess() {
		return false
	}
	switch in.Form {
	case FMR, FMI:
		return in.Op != CMP && in.Op != TEST
	case FM:
		// Single-memory-operand forms: PUSH/JMP/CALL read, POP writes,
		// INC/DEC/NEG/NOT read-modify-write.
		switch in.Op {
		case POP, INC, DEC, NEG, NOT:
			return true
		}
		return false
	}
	return false
}

// Reads reports whether the memory operand is read.
func (in *Inst) Reads() bool {
	if !in.IsMemAccess() {
		return false
	}
	switch in.Form {
	case FRM:
		return true
	case FMR, FMI:
		// Plain MOV stores do not read their destination; ALU stores do.
		return in.Op != MOV
	case FM:
		return in.Op != POP
	}
	return false
}

// String renders the instruction in AT&T-flavoured syntax.
func (in *Inst) String() string {
	suffix := ""
	switch in.Size {
	case 1:
		suffix = "b"
	case 2:
		suffix = "w"
	case 4:
		suffix = "l"
	}
	op := in.Op.String() + suffix
	switch in.Form {
	case FNone:
		return in.Op.String()
	case FR:
		return fmt.Sprintf("%s %s", op, in.Reg)
	case FM:
		return fmt.Sprintf("%s %s", op, in.Mem)
	case FRR:
		// AT&T order: src, dst. Reg is dst; Reg2 is src.
		return fmt.Sprintf("%s %s, %s", op, in.Reg2, in.Reg)
	case FRM:
		return fmt.Sprintf("%s %s, %s", op, in.Mem, in.Reg)
	case FMR:
		return fmt.Sprintf("%s %s, %s", op, in.Reg, in.Mem)
	case FRI:
		return fmt.Sprintf("%s $%#x, %s", op, in.Imm, in.Reg)
	case FMI:
		return fmt.Sprintf("%s $%#x, %s", op, in.Imm, in.Mem)
	case FI:
		return fmt.Sprintf("%s $%#x", op, in.Imm)
	case FRel8, FRel32:
		return fmt.Sprintf("%s .%+d", op, in.Imm)
	}
	return "(bad)"
}
