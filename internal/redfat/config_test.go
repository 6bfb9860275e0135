package redfat_test

import (
	"bytes"
	"encoding/hex"
	"reflect"
	"testing"

	"redfat/internal/redfat"
)

// TestConfigRetiredLibcBit pins the .rf.config encoding across the
// retirement of the harden-time NoLibcCheck bit (bit 3 of byte 2): the
// default configuration still encodes to the bytes it always has, and a
// section written with the bit set still decodes, to the same options
// as without it.
func TestConfigRetiredLibcBit(t *testing.T) {
	want, _ := hex.DecodeString("01fd000000")
	enc := redfat.EncodeConfig(redfat.Defaults())
	if !bytes.Equal(enc, want) {
		t.Fatalf("EncodeConfig(Defaults()) = %x, want %x", enc, want)
	}
	for _, opt := range []redfat.Options{redfat.Defaults(), {LowFat: true, NoIndirect: true, MaxBatch: 4}} {
		clean := redfat.EncodeConfig(opt)
		old := append([]byte(nil), clean...)
		old[2] |= 1 << 3
		got, hasAllow, err := redfat.DecodeConfig(old)
		if err != nil {
			t.Fatalf("section with the retired bit rejected: %v", err)
		}
		ref, refAllow, err := redfat.DecodeConfig(clean)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, ref) || hasAllow != refAllow {
			t.Errorf("retired bit changed the decoded options: %+v vs %+v", got, ref)
		}
		if re := redfat.EncodeConfig(got); !bytes.Equal(re, clean) {
			t.Errorf("re-encoding kept the retired bit: %x, want %x", re, clean)
		}
	}
}
