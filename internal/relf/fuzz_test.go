package relf

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"maps"
	"reflect"
	"slices"
	"testing"
)

// The RELF decoders parse untrusted bytes: an image from disk, and the
// metadata sections a hardened image carries. Each must either fail with
// a *FormatError or decode to a value that survives an encode/decode
// round trip unchanged; none may panic.

func requireFormatError(t *testing.T, err error) {
	t.Helper()
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("untyped error: %v", err)
	}
}

// FuzzUnmarshal feeds images to Unmarshal. The trailing CRC is recomputed
// first, so mutated inputs reach the parser instead of stopping at the
// checksum.
func FuzzUnmarshal(f *testing.F) {
	b := sampleBinary()
	b.AddSection(&Section{Name: PatchTableSection, Kind: SecMeta,
		Data: EncodePatchTable(map[uint64]uint64{DefaultTextBase + 8: 0x900000})})
	data, err := b.Marshal()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data)
	f.Fuzz(func(t *testing.T, data []byte) {
		data = slices.Clone(data)
		if len(data) >= 4 {
			body := data[:len(data)-4]
			binary.LittleEndian.PutUint32(data[len(data)-4:], crc32.ChecksumIEEE(body))
		}
		b, err := Unmarshal(data)
		if err != nil {
			requireFormatError(t, err)
			return
		}
		enc, err := b.Marshal()
		if err != nil {
			t.Fatalf("decoded image does not marshal: %v", err)
		}
		again, err := Unmarshal(enc)
		if err != nil || !reflect.DeepEqual(again, b) {
			t.Fatalf("round trip: %+v, %v; want %+v", again, err, b)
		}
	})
}

// FuzzDecodePatchTable covers the .rf.patch and .rf.origins sections
// (one wire format).
func FuzzDecodePatchTable(f *testing.F) {
	f.Add(EncodePatchTable(map[uint64]uint64{0x400010: 0x900000, 0x400020: 0x900040}))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodePatchTable(data)
		if err != nil {
			requireFormatError(t, err)
			return
		}
		again, err := DecodePatchTable(EncodePatchTable(m))
		if err != nil || !maps.Equal(again, m) {
			t.Fatalf("round trip: %v, %v; want %v", again, err, m)
		}
	})
}

// FuzzDecodeJumpTables covers the .rf.jt section.
func FuzzDecodeJumpTables(f *testing.F) {
	f.Add(EncodeJumpTables([]JumpTable{{Addr: 0x401000, Entries: 4}, {Addr: 0x401020, Entries: 1}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		tables, err := DecodeJumpTables(data)
		if err != nil {
			requireFormatError(t, err)
			return
		}
		again, err := DecodeJumpTables(EncodeJumpTables(tables))
		if err != nil || !slices.Equal(again, tables) {
			t.Fatalf("round trip: %v, %v; want %v", again, err, tables)
		}
	})
}
