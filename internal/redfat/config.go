package redfat

import (
	"encoding/binary"
	"fmt"
)

// ConfigSection records the hardening configuration inside the produced
// binary, so the translation validator can re-derive the checking policy
// without being told the original command line. Like the site table it
// is metadata only — the VM never loads it.
const ConfigSection = ".rf.config"

// UnprotSection lists operand addresses the rewriter had to leave
// unprotected (their patch failed and could not be repaired). The
// validator exempts them from the coverage audit instead of mistaking
// them for rewriter bugs. Encoded with the patch-table format
// (addr → 0); absent when every selected operand was protected.
const UnprotSection = ".rf.unprot"

// configVersion versions the ConfigSection encoding.
const configVersion = 1

// config flag bits (byte 1 of the section).
const (
	cfgLowFat = 1 << iota
	cfgProfile
	cfgCheckReads
	cfgSizeCheck
	cfgElim
	cfgElimDom
	cfgBatch
	cfgMerge
)

// config flag bits (byte 2 of the section). Bit 3 is reserved: it
// recorded a harden-time NoLibcCheck that nothing ever read. Encoders
// leave it clear and decoders ignore it, so older binaries still load.
const (
	cfgNoClobberSpec = 1 << iota
	cfgLocalLiveness
	cfgAllowList
	_
	cfgNoIndirect
)

// EncodeConfig serializes the policy-relevant subset of opt.
func EncodeConfig(opt Options) []byte {
	var f1, f2 byte
	set := func(b *byte, bit byte, on bool) {
		if on {
			*b |= bit
		}
	}
	set(&f1, cfgLowFat, opt.LowFat)
	set(&f1, cfgProfile, opt.Profile)
	set(&f1, cfgCheckReads, opt.CheckReads)
	set(&f1, cfgSizeCheck, opt.SizeCheck)
	set(&f1, cfgElim, opt.Elim)
	set(&f1, cfgElimDom, opt.ElimDom)
	set(&f1, cfgBatch, opt.Batch)
	set(&f1, cfgMerge, opt.Merge)
	set(&f2, cfgNoClobberSpec, opt.NoClobberSpec)
	set(&f2, cfgLocalLiveness, opt.LocalLiveness)
	set(&f2, cfgAllowList, opt.AllowList != nil)
	set(&f2, cfgNoIndirect, opt.NoIndirect)
	out := make([]byte, 5)
	out[0] = configVersion
	out[1] = f1
	out[2] = f2
	binary.LittleEndian.PutUint16(out[3:], uint16(opt.MaxBatch))
	return out
}

// DecodeConfig recovers the Options subset stored by EncodeConfig. The
// AllowList itself is not stored; HasAllowList reports whether one was
// in effect (site modes already reflect it in the site table).
func DecodeConfig(data []byte) (opt Options, hasAllowList bool, err error) {
	if len(data) < 5 {
		return opt, false, fmt.Errorf("redfat: config section too short (%d bytes)", len(data))
	}
	if data[0] != configVersion {
		return opt, false, fmt.Errorf("redfat: unknown config version %d", data[0])
	}
	f1, f2 := data[1], data[2]
	opt.LowFat = f1&cfgLowFat != 0
	opt.Profile = f1&cfgProfile != 0
	opt.CheckReads = f1&cfgCheckReads != 0
	opt.SizeCheck = f1&cfgSizeCheck != 0
	opt.Elim = f1&cfgElim != 0
	opt.ElimDom = f1&cfgElimDom != 0
	opt.Batch = f1&cfgBatch != 0
	opt.Merge = f1&cfgMerge != 0
	opt.NoClobberSpec = f2&cfgNoClobberSpec != 0
	opt.LocalLiveness = f2&cfgLocalLiveness != 0
	opt.NoIndirect = f2&cfgNoIndirect != 0
	opt.MaxBatch = int(binary.LittleEndian.Uint16(data[3:]))
	return opt, f2&cfgAllowList != 0, nil
}
