package rtlib

// The check fast path: per-site constants the real RedFat specializes
// into trampoline assembly at rewrite time are precomputed here once per
// site, on the site's first execution (plan), instead of being re-derived
// on every check execution; a run compiles only the sites it reaches.
// Each site's plan is bound to its site index and Stats entry, and its
// check method (runtime.go) is the site's one compiled check: the RTCALL
// binding calls it by index and a fused superblock step holds it
// directly. The hot path then reduces to: rebuild the
// access range from at most two register reads plus a baked-in static
// offset, look up the cycle cost in a four-entry table, and run the
// merged comparisons against precomputed bounds constants.
//
// Everything precomputed is a pure function of the Check record, so the
// charged guest cycles and verdicts are bit-identical to the interpretive
// path (checkCost stays as the executable specification; the test suite
// diffs the table against it exhaustively).

import (
	"redfat/internal/isa"
	"redfat/internal/vm"
)

// checkFast is the precomputed execution plan of one instrumentation site.
// The one-byte fields sit together so the plan packs into 88 bytes.
type checkFast struct {
	// staticOff is the constant part of the access offset: the operand
	// displacement, plus the baked-in next-instruction address for
	// RIP-relative operands.
	staticOff uint64

	// baseReg is the register holding the (potentially low-fat) pointer,
	// or isa.RegNone when the operand has no pointer register (absolute
	// or RIP-relative addressing).
	baseReg isa.Reg

	// indexReg and scale fold the scaled-index contribution (RegNone =
	// none).
	indexReg isa.Reg

	seg isa.Seg // segment-base register selector (SegNone common case)

	tryLowFat bool // Full/Profile: attempt base(ptr) before base(LB)
	sizeCheck bool // metadata hardening enabled (!NoSizeCheck)
	profile   bool // ModeProfile: record verdicts, never abort

	// oobKind is the error kind reported on a bounds violation
	// (read/write folded from Check.Write).
	oobKind vm.MemErrorKind

	// rt, site and stat bind the plan to its runtime (heap, telemetry,
	// site record), its site index and its SiteStat entry.
	site uint32
	rt   *Runtime
	stat *SiteStat

	scale  uint64 // indexReg's scale factor
	length uint64 // access span length, widened once

	// costs is the charged-cycle table indexed by fatIdx: the check cost
	// is a pure function of (site constants, fat, fallbackFat), so all
	// reachable combinations are folded when the plan is compiled.
	costs [4]uint64
}

// fatIdx packs the dynamic (fat, fallbackFat) outcome into a costs index.
func fatIdx(fat, fallbackFat bool) int {
	i := 0
	if fat {
		i |= 2
	}
	if fallbackFat {
		i |= 1
	}
	return i
}

// compileCheck precomputes the fast-path plan for one site.
func compileCheck(c *Check) checkFast {
	cf := checkFast{
		staticOff: uint64(int64(c.Operand.Disp)),
		baseReg:   isa.RegNone,
		indexReg:  c.Operand.Index,
		scale:     uint64(c.Operand.Scale),
		seg:       c.Operand.Seg,
		length:    uint64(c.Len),
		tryLowFat: c.Mode == ModeFull || c.Mode == ModeProfile,
		sizeCheck: !c.NoSizeCheck,
		profile:   c.Mode == ModeProfile,
		oobKind:   vm.ErrOOBRead,
	}
	if c.Write {
		cf.oobKind = vm.ErrOOBWrite
	}
	switch {
	case c.Operand.Base == isa.RIP:
		cf.staticOff += c.RipNext
	case c.Operand.Base != isa.RegNone:
		cf.baseReg = c.Operand.Base
	}
	for _, fat := range []bool{false, true} {
		for _, fb := range []bool{false, true} {
			cf.costs[fatIdx(fat, fb)] = checkCost(c, fat, fb)
		}
	}
	return cf
}

// plan returns site i's compiled check, compiling it on first use and
// binding it to the site. i must index rt.Checks.
func (rt *Runtime) plan(i uint32) *checkFast {
	cf := rt.fast[i]
	if cf == nil {
		c := compileCheck(&rt.Checks[i])
		c.rt, c.site, c.stat = rt, i, &rt.Stats[i]
		cf = &c
		rt.fast[i] = cf
	}
	return cf
}

// accessRange rebuilds (ptr, lb, ub) for one execution of the site: the
// dynamic part is at most two register reads; everything else was folded
// into staticOff when the plan was compiled.
func (cf *checkFast) accessRange(v *vm.VM) (ptr, lb, ub uint64) {
	i := cf.staticOff
	if cf.baseReg != isa.RegNone {
		ptr = v.Regs[cf.baseReg]
	}
	if cf.indexReg != isa.RegNone {
		i += v.Regs[cf.indexReg] * cf.scale
	}
	switch cf.seg {
	case isa.SegFS:
		i += v.FSBase
	case isa.SegGS:
		i += v.GSBase
	}
	lb = ptr + i
	return ptr, lb, lb + cf.length
}
