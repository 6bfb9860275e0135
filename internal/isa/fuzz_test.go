package isa

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
)

// FuzzDecode is the decode→encode round trip over arbitrary bytes. Decode
// must either fail with a *DecodeError or return an instruction that
//   - is 1..min(len(code), MaxInstLen) bytes long,
//   - decodes the same from the first MaxInstLen bytes alone (what the VM
//     fetches) as from the whole buffer (what a linear sweep decodes), and
//   - re-encodes to exactly the bytes it consumed, so every accepted
//     encoding is the one Encode emits.
func FuzzDecode(f *testing.F) {
	r := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		in := randomInst(r)
		buf, err := Encode(nil, &in)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(buf)
	}
	f.Fuzz(func(t *testing.T, code []byte) {
		in, err := Decode(code)
		if err != nil {
			var de *DecodeError
			if !errors.As(err, &de) {
				t.Fatalf("Decode(% x): untyped error %v", code, err)
			}
			return
		}
		if in.Len == 0 || int(in.Len) > len(code) || in.Len > MaxInstLen {
			t.Fatalf("Decode(% x) = %s with Len %d", code, in.String(), in.Len)
		}
		if len(code) > MaxInstLen {
			if short, err := Decode(code[:MaxInstLen]); err != nil || short != in {
				t.Fatalf("Decode(% x) = %s, its first %d bytes give %s, %v",
					code, in.String(), MaxInstLen, short.String(), err)
			}
		}
		re := in
		buf, err := Encode(nil, &re)
		if err != nil {
			t.Fatalf("Encode(%s) of % x: %v", in.String(), code[:in.Len], err)
		}
		if !bytes.Equal(buf, code[:in.Len]) {
			t.Fatalf("% x decodes to %s, which re-encodes as % x",
				code[:in.Len], in.String(), buf)
		}
	})
}
