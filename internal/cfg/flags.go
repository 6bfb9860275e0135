package cfg

import "redfat/internal/isa"

// The per-flag effects of each instruction are isa's table (isa.FlagSet,
// isa.FlagsRead, isa.FlagsKilled, isa.FlagsMayWrite). This file adds the
// one thing a whole-program analysis needs on top: a CALL, RTCALL or
// TRAP hands control to code the analysis does not follow (a callee, a
// runtime binding, a trampoline), so it is treated as reading and
// possibly writing every flag.

// opaque reports whether in transfers control to code whose flag
// effects the analysis cannot see.
func opaque(in *isa.Inst) bool {
	return in.Op == isa.CALL || in.Op == isa.RTCALL || in.Op == isa.TRAP
}

// FlagsRead returns the set of flags whose input value in may observe:
// isa.FlagsRead, saturated to every flag at a CALL, RTCALL or TRAP.
func FlagsRead(in *isa.Inst) isa.FlagSet {
	if opaque(in) {
		return isa.AllFlags
	}
	return isa.FlagsRead(in)
}

// WritesFlags reports whether in may modify any flag: a nonzero
// isa.FlagsMayWrite, or a CALL, RTCALL or TRAP.
func WritesFlags(in *isa.Inst) bool {
	return opaque(in) || isa.FlagsMayWrite(in) != 0
}
