package isa

// FlagSet is a bitmask over the four RF64 condition flags. It is the
// one table of each instruction's flag effects, exact per flag because
// several instructions write only a subset: INC/DEC preserve CF (x86
// semantics, mirrored by the VM), and a shift whose count may be zero
// preserves all flags. Treating those as whole-register kills is
// unsound: a trampoline could clobber a CF that a later JB still
// observes through an INC.
//
// The table describes the instruction alone. A CALL, RTCALL or TRAP
// reads and writes no flag itself; an analysis that cannot see the
// callee, runtime binding or trampoline behind it adds that
// conservatism on top (internal/cfg does).
type FlagSet uint8

// Individual flag bits.
const (
	FlagZ FlagSet = 1 << iota
	FlagS
	FlagC
	FlagO

	// AllFlags is the set of every condition flag.
	AllFlags FlagSet = FlagZ | FlagS | FlagC | FlagO
)

// Has reports whether f contains all flags in o.
func (f FlagSet) Has(o FlagSet) bool { return f&o == o }

// condFlags maps each conditional jump to the flags its predicate
// observes (mirrors vm's Flags.cond).
func condFlags(op Op) FlagSet {
	switch op {
	case JE, JNE:
		return FlagZ
	case JL, JGE:
		return FlagS | FlagO
	case JLE, JG:
		return FlagZ | FlagS | FlagO
	case JB, JAE:
		return FlagC
	case JBE, JA:
		return FlagC | FlagZ
	case JS, JNS:
		return FlagS
	case JO, JNO:
		return FlagO
	}
	return 0
}

// FlagsRead returns the set of flags whose input value in observes: a
// conditional jump's predicate flags, or all four for PUSHF. A flag that
// merely passes through unchanged (INC's CF) is NOT read; it is simply
// absent from FlagsKilled, so liveness flows through the instruction.
func FlagsRead(in *Inst) FlagSet {
	if in.Op.IsCondJump() {
		return condFlags(in.Op)
	}
	if in.Op == PUSHF {
		return AllFlags
	}
	return 0
}

// FlagsKilled returns the set of flags in unconditionally overwrites
// regardless of its inputs (a must-kill set):
//
//   - ADD/SUB/AND/OR/XOR/CMP/TEST/IMUL/NEG/POPF overwrite all four;
//   - INC/DEC overwrite ZF/SF/OF but preserve CF;
//   - SHL/SHR/SAR overwrite all four only when the count is a non-zero
//     immediate; a %cl-count or zero-immediate shift may leave the
//     flags untouched and so kills nothing.
func FlagsKilled(in *Inst) FlagSet {
	switch in.Op {
	case ADD, SUB, AND, OR, XOR, CMP, TEST, IMUL, NEG, POPF:
		return AllFlags
	case INC, DEC:
		return FlagZ | FlagS | FlagO
	case SHL, SHR, SAR:
		if in.Form == FRI && in.Imm&63 != 0 {
			return AllFlags
		}
	}
	return 0
}

// FlagsMayWrite returns the set of flags in might change: the kill set,
// except that a %cl-count shift may write all four without being
// guaranteed to. A flag outside it comes out of in unchanged.
func FlagsMayWrite(in *Inst) FlagSet {
	switch in.Op {
	case SHL, SHR, SAR:
		if in.Form == FRI && in.Imm&63 == 0 {
			return 0
		}
		return AllFlags
	}
	return FlagsKilled(in)
}
