package rtlib

// Cycle-cost model for the instrumented checks.
//
// In the real RedFat, trampolines contain hand-optimized x86_64 assembly;
// in this reproduction the check logic executes host-side (the RTCALL
// handler) and charges a modelled cycle cost for each step of the
// sequence it stands for. The constants below are the model's cost per
// step; nothing yet ties them to an instruction count of paper Fig. 4:
//
//	register save+restore          1 per saved register (leader only)
//	flags save+restore             2                    (leader only)
//	LB/UB computation              2
//	base(ptr): shift, table load,
//	  magic-multiply modulo        4   (again for the redzone fallback
//	                                    base(LB) when ptr is non-fat)
//	header load (SIZE)             2
//	size-metadata validation       2   (the -size option removes this)
//	UaF and bounds compare         3   (SIZE==0, then LB and UB)
//	per-site profiling counters    4   (the profiling variant only)
//
// A check whose LB is non-fat too stops after the base computations.
const (
	costSavePerReg = 1
	costSaveFlags  = 2
	costAddrCalc   = 2
	costBasePtr    = 4
	costHeaderLoad = 2
	costSizeCheck  = 2
	costBoundsCmp  = 3
	costProfileAcc = 4
)

// Hardened-libc span-check costs (span.go): one object resolution
// validates an entire [p, p+n) operand, so the cost is O(1) in n — the
// same step sequence as a full per-access check, minus the register
// save/restore (the handler already owns the register file).
const (
	costSpanCheckFat    = costAddrCalc + costBasePtr + costHeaderLoad + costSizeCheck + costBoundsCmp
	costSpanCheckNonFat = costAddrCalc + costBasePtr
)

// checkCost returns the cycle cost of executing the check c once, given
// whether the pointer turned out to be low-fat (the non-fat fallback path
// costs one more base computation but skips the rest when LB is also
// non-fat).
func checkCost(c *Check, fat, fallbackFat bool) uint64 {
	cost := uint64(0)
	if c.Leader {
		cost += uint64(c.SavedRegs) * costSavePerReg
		if c.SaveFlags {
			cost += costSaveFlags
		}
	}
	cost += costAddrCalc
	switch c.Mode {
	case ModeFull, ModeProfile:
		cost += costBasePtr
		if !fat {
			cost += costBasePtr // fallback: base(LB)
			if !fallbackFat {
				return cost // non-fat pointer: check returns early
			}
		}
	case ModeRedzone:
		cost += costBasePtr // base(LB)
		if !fallbackFat {
			return cost
		}
	}
	cost += costHeaderLoad
	if !c.NoSizeCheck {
		cost += costSizeCheck
	}
	cost += costBoundsCmp
	if c.Mode == ModeProfile {
		cost += costProfileAcc
	}
	return cost
}
