package relf

import (
	"encoding/binary"
	"sort"
)

// PatchTableSection is the name of the metadata section holding the
// 1-byte-trap patch table emitted by the rewriter. When the rewriter must
// fall back to a 1-byte TRAP patch (the analogue of E9Patch's last-resort
// tactics for instructions too short to hold a jump), the VM consults this
// table to redirect execution to the trampoline, modelling int3-and-handler
// dispatch with its associated cost.
const PatchTableSection = ".rf.patch"

// OriginTableSection is the metadata section mapping every trampoline
// start address back to the original instruction it was patched over —
// all tactics, not just the TRAP fallbacks of PatchTableSection. The VM
// never reads it; it exists for forensics/symbolization, so profiler
// samples and error PCs inside trampolines resolve to guest code. Same
// wire format as the patch table (EncodePatchTable/DecodePatchTable).
const OriginTableSection = ".rf.origins"

// EncodePatchTable serializes a patch table (trap address → trampoline
// address) into section data, sorted by source address so the section
// bytes are a deterministic function of the mapping — hardening the same
// binary twice with the same options must produce identical output.
func EncodePatchTable(entries map[uint64]uint64) []byte {
	froms := make([]uint64, 0, len(entries))
	for from := range entries {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	buf := make([]byte, 0, 8+16*len(entries))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(entries)))
	for _, from := range froms {
		buf = binary.LittleEndian.AppendUint64(buf, from)
		buf = binary.LittleEndian.AppendUint64(buf, entries[from])
	}
	return buf
}

// DecodePatchTable parses section data produced by EncodePatchTable.
func DecodePatchTable(data []byte) (map[uint64]uint64, error) {
	if len(data) < 8 {
		return nil, formatErr("patch table too short")
	}
	// Bound the count by division: 8+16*n wraps for n ≥ 2^60.
	n := binary.LittleEndian.Uint64(data)
	if n > uint64(len(data)-8)/16 {
		return nil, formatErr("patch table truncated (%d entries)", n)
	}
	m := make(map[uint64]uint64, n)
	for i := uint64(0); i < n; i++ {
		off := 8 + 16*i
		from := binary.LittleEndian.Uint64(data[off:])
		to := binary.LittleEndian.Uint64(data[off+8:])
		m[from] = to
	}
	return m, nil
}
