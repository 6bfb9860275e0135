package rtlib

import (
	"encoding/binary"
	"fmt"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

// CheckImport is the import name the rewriter adds for the instrumented
// check routine (the analogue of the libredfat check entry point).
const CheckImport = "__redfat_check"

// SitesSection is the metadata section carrying the check-site table.
const SitesSection = ".rf.sites"

// Mode selects the check variant instrumented at a site (paper §3-§5).
type Mode uint8

// Check modes.
const (
	// ModeRedzone is the conservative default: redzone-only protection,
	// computing the object base from the accessed address (base(LB)).
	ModeRedzone Mode = iota
	// ModeFull is the combined (Redzone)+(LowFat) check: the object base
	// is computed from the pointer (base(ptr)) when fat, falling back to
	// base(LB) otherwise (paper Fig. 4).
	ModeFull
	// ModeProfile is the profiling variant (paper Fig. 5 step 1): it
	// evaluates the LowFat component, records pass/fail per site, and
	// never aborts.
	ModeProfile
)

// String names the mode.
func (m Mode) String() string {
	switch m {
	case ModeRedzone:
		return "redzone"
	case ModeFull:
		return "full"
	case ModeProfile:
		return "profile"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// Check is one instrumentation site: everything the runtime check routine
// needs, baked in by the rewriter (in the real system these constants are
// specialized into the trampoline assembly).
type Check struct {
	PC   uint64 // address of the original (first) access instruction
	Mode Mode

	// Operand is the memory operand being checked. For merged checks the
	// displacement is the minimum of the merged group.
	Operand isa.Mem

	// Len is the access length in bytes; for merged checks it covers the
	// span [minDisp, maxDisp+width).
	Len uint32

	Write bool // any constituent access writes

	// NoSizeCheck disables metadata hardening (the -size option).
	NoSizeCheck bool

	// Leader marks the first check of its trampoline: it carries the
	// register/flag save-restore cost. SavedRegs/SaveFlags reflect the
	// clobber specialization (paper §6, low-level optimizations).
	Leader    bool
	SavedRegs uint8
	SaveFlags bool

	// Merged counts how many original accesses this check covers (1 for
	// unmerged sites); kept for reporting.
	Merged uint16

	// RipNext holds the address of the instruction following the access
	// when the operand is RIP-relative (the rewriter bakes it in so the
	// check can reconstruct the absolute address).
	RipNext uint64
}

// EncodeSites serializes a site table into section data.
func EncodeSites(checks []Check) []byte {
	buf := make([]byte, 0, 8+len(checks)*40)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(checks)))
	for i := range checks {
		c := &checks[i]
		buf = binary.LittleEndian.AppendUint64(buf, c.PC)
		buf = append(buf, byte(c.Mode))
		var flags byte
		if c.Write {
			flags |= 1
		}
		if c.NoSizeCheck {
			flags |= 2
		}
		if c.Leader {
			flags |= 4
		}
		if c.SaveFlags {
			flags |= 8
		}
		buf = append(buf, flags)
		buf = append(buf, byte(c.Operand.Seg), byte(c.Operand.Base),
			byte(c.Operand.Index), c.Operand.Scale)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(c.Operand.Disp))
		buf = binary.LittleEndian.AppendUint32(buf, c.Len)
		buf = append(buf, c.SavedRegs)
		buf = binary.LittleEndian.AppendUint16(buf, c.Merged)
		buf = append(buf, 0, 0, 0) // pad RipNext to offset 28
		buf = binary.LittleEndian.AppendUint64(buf, c.RipNext)
	}
	return buf
}

const siteRecordLen = 36

// SiteTableError reports a malformed site table. The table comes from
// the hardened binary, which is untrusted input: a record the check
// routine could not execute is rejected here instead of faulting the
// host at the site's first execution.
type SiteTableError struct {
	Site   int // offending record index, or -1 for the table header
	Reason string
}

// Error implements the error interface.
func (e *SiteTableError) Error() string {
	if e.Site < 0 {
		return "rtlib: site table " + e.Reason
	}
	return fmt.Sprintf("rtlib: site %d: %s", e.Site, e.Reason)
}

// DecodeSites parses a site table.
func DecodeSites(data []byte) ([]Check, error) {
	if len(data) < 8 {
		return nil, &SiteTableError{Site: -1, Reason: "too short"}
	}
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)-8)/siteRecordLen {
		return nil, &SiteTableError{Site: -1, Reason: fmt.Sprintf("truncated (%d sites)", n)}
	}
	checks := make([]Check, n)
	for i := uint64(0); i < n; i++ {
		rec := data[8+i*siteRecordLen:]
		c := &checks[i]
		c.PC = binary.LittleEndian.Uint64(rec)
		c.Mode = Mode(rec[8])
		flags := rec[9]
		c.Write = flags&1 != 0
		c.NoSizeCheck = flags&2 != 0
		c.Leader = flags&4 != 0
		c.SaveFlags = flags&8 != 0
		c.Operand = isa.Mem{
			Seg:   isa.Seg(rec[10]),
			Base:  isa.Reg(rec[11]),
			Index: isa.Reg(rec[12]),
			Scale: rec[13],
			Disp:  int32(binary.LittleEndian.Uint32(rec[14:])),
		}
		if b := c.Operand.Base; b >= isa.NumRegs && b != isa.RegNone && b != isa.RIP {
			return nil, &SiteTableError{Site: int(i), Reason: fmt.Sprintf("bad base register %#x", uint8(b))}
		}
		if x := c.Operand.Index; x >= isa.NumRegs && x != isa.RegNone {
			return nil, &SiteTableError{Site: int(i), Reason: fmt.Sprintf("bad index register %#x", uint8(x))}
		}
		c.Len = binary.LittleEndian.Uint32(rec[18:])
		c.SavedRegs = rec[22]
		c.Merged = binary.LittleEndian.Uint16(rec[23:])
		c.RipNext = binary.LittleEndian.Uint64(rec[28:])
	}
	return checks, nil
}

// SitesFrom extracts the site table from a hardened binary.
func SitesFrom(bin *relf.Binary) ([]Check, error) {
	s := bin.Section(SitesSection)
	if s == nil {
		return nil, fmt.Errorf("rtlib: binary has no %s section", SitesSection)
	}
	return DecodeSites(s.Data)
}
