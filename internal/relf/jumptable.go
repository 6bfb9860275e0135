package relf

import "encoding/binary"

// JumpTableSection is the metadata section declaring the jump tables a
// marker-built binary contains. The assembler's .jumptable directive
// emits one record per table (address + entry count); the indirect-flow
// recovery in internal/cfg only trusts a table load whose span is
// declared here AND lies in a read-only section, and the presence of
// this section is what opts the binary into LPAD enforcement in the VM.
const JumpTableSection = ".rf.jt"

// JumpTable is one declared jump table: Entries consecutive 8-byte code
// addresses starting at Addr.
type JumpTable struct {
	Addr    uint64
	Entries uint32
}

const jtVersion = 1

// EncodeJumpTables serializes jump-table records into section data.
// Callers pass records in emission order; the layout is deterministic.
func EncodeJumpTables(tables []JumpTable) []byte {
	buf := make([]byte, 0, 8+12*len(tables))
	buf = append(buf, jtVersion)
	buf = append(buf, 0, 0, 0) // padding
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(tables)))
	for _, t := range tables {
		buf = binary.LittleEndian.AppendUint64(buf, t.Addr)
		buf = binary.LittleEndian.AppendUint32(buf, t.Entries)
	}
	return buf
}

// DecodeJumpTables parses section data produced by EncodeJumpTables.
func DecodeJumpTables(data []byte) ([]JumpTable, error) {
	if len(data) < 8 {
		return nil, formatErr("jump-table section too short")
	}
	if data[0] != jtVersion {
		return nil, formatErr("jump-table section version %d (want %d)", data[0], jtVersion)
	}
	n := binary.LittleEndian.Uint32(data[4:])
	if uint64(len(data)) < 8+12*uint64(n) {
		return nil, formatErr("jump-table section truncated (%d records)", n)
	}
	out := make([]JumpTable, n)
	for i := uint32(0); i < n; i++ {
		off := 8 + 12*uint64(i)
		out[i].Addr = binary.LittleEndian.Uint64(data[off:])
		out[i].Entries = binary.LittleEndian.Uint32(data[off+8:])
	}
	return out, nil
}
