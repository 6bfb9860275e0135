package rtlib

import (
	"errors"
	"testing"

	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/vm"
)

// FuzzDecodeSites feeds arbitrary bytes to the site-table decoder, the
// parser of a hardened binary's .rf.sites section. A table must either
// fail with a *SiteTableError or decode into checks that compile and
// whose access range the check routine can rebuild on a fresh VM, and
// the decoded table must survive an encode/decode round trip unchanged.
func FuzzDecodeSites(f *testing.F) {
	f.Add(EncodeSites([]Check{
		{PC: 0x400123, Mode: ModeFull, Operand: isa.Mem{Seg: isa.SegGS, Base: isa.RBX,
			Index: isa.RCX, Scale: 8, Disp: -64}, Len: 24, Write: true, Leader: true,
			SavedRegs: 3, SaveFlags: true, Merged: 3},
		{PC: 0x400300, Mode: ModeProfile, Operand: isa.Mem{Base: isa.RIP,
			Index: isa.RegNone, Scale: 1, Disp: 0x2000}, Len: 4, Merged: 1, RipNext: 0x400308},
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		checks, err := DecodeSites(data)
		if err != nil {
			var se *SiteTableError
			if !errors.As(err, &se) {
				t.Fatalf("untyped error: %v", err)
			}
			return
		}
		v := vm.New(mem.New())
		for i := range checks {
			cf := compileCheck(&checks[i])
			cf.accessRange(v)
		}
		again, err := DecodeSites(EncodeSites(checks))
		if err != nil {
			t.Fatalf("re-encoded table does not decode: %v", err)
		}
		if len(again) != len(checks) {
			t.Fatalf("round trip: %d checks, want %d", len(again), len(checks))
		}
		for i := range checks {
			if again[i] != checks[i] {
				t.Fatalf("round trip: check %d = %+v, want %+v", i, again[i], checks[i])
			}
		}
	})
}
