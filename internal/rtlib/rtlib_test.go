package rtlib

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

func TestSitesRoundTrip(t *testing.T) {
	checks := []Check{
		{
			PC: 0x400123, Mode: ModeFull,
			Operand: isa.Mem{Seg: isa.SegGS, Base: isa.RBX, Index: isa.RCX,
				Scale: 8, Disp: -64},
			Len: 24, Write: true, Leader: true, SavedRegs: 3, SaveFlags: true,
			Merged: 3,
		},
		{
			PC: 0x400200, Mode: ModeRedzone,
			Operand: isa.Mem{Base: isa.RegNone, Index: isa.RegNone, Scale: 1,
				Disp: 0x601000},
			Len: 8, NoSizeCheck: true, Merged: 1,
		},
		{
			PC: 0x400300, Mode: ModeProfile,
			Operand: isa.Mem{Base: isa.RIP, Index: isa.RegNone, Scale: 1, Disp: 0x2000},
			Len:     4, Merged: 1, RipNext: 0x400308,
		},
	}
	data := EncodeSites(checks)
	got, err := DecodeSites(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(checks) {
		t.Fatalf("count = %d", len(got))
	}
	for i := range checks {
		if got[i] != checks[i] {
			t.Errorf("check %d: %+v != %+v", i, got[i], checks[i])
		}
	}
}

func TestQuickSitesRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	regs := []isa.Reg{isa.RAX, isa.RBX, isa.RSP, isa.R15, isa.RegNone, isa.RIP}
	f := func() bool {
		c := Check{
			PC:   r.Uint64(),
			Mode: Mode(r.Intn(3)),
			Operand: isa.Mem{
				Seg:   isa.Seg(r.Intn(3)),
				Base:  regs[r.Intn(len(regs))],
				Index: regs[r.Intn(4)],
				Scale: 1 << r.Intn(4),
				Disp:  int32(r.Uint32()),
			},
			Len:         uint32(r.Intn(1 << 16)),
			Write:       r.Intn(2) == 0,
			NoSizeCheck: r.Intn(2) == 0,
			Leader:      r.Intn(2) == 0,
			SaveFlags:   r.Intn(2) == 0,
			SavedRegs:   uint8(r.Intn(5)),
			Merged:      uint16(1 + r.Intn(8)),
			RipNext:     r.Uint64(),
		}
		got, err := DecodeSites(EncodeSites([]Check{c}))
		if err != nil {
			t.Fatal(err)
		}
		return got[0] == c
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestDecodeSitesErrors feeds corrupt site tables to the decoder: each
// must fail with a *SiteTableError, never a panic, and never decode into
// a record the check routine would fault on.
func TestDecodeSitesErrors(t *testing.T) {
	record := func(base, index isa.Reg) []byte {
		return EncodeSites([]Check{{PC: 1, Merged: 1,
			Operand: isa.Mem{Base: base, Index: index, Scale: 1}}})
	}
	valid := record(isa.RBX, isa.RegNone)
	wrapped := binary.LittleEndian.AppendUint64(nil, 512409557603043101) // ×36 wraps to 20
	wrapped = append(wrapped, make([]byte, 20)...)
	cases := []struct {
		name string
		data []byte
	}{
		{"nil", nil},
		{"truncated", valid[:len(valid)-4]},
		{"count-wraps", wrapped},
		{"base-0x10", record(16, isa.RegNone)},
		{"base-0x20", record(0x20, isa.RegNone)},
		{"index-0x10", record(isa.RBX, 16)},
		{"index-rip", record(isa.RBX, isa.RIP)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			checks, err := DecodeSites(tc.data)
			var se *SiteTableError
			if !errors.As(err, &se) {
				t.Fatalf("DecodeSites = %d checks, %v; want a *SiteTableError", len(checks), err)
			}
		})
	}
	for _, regs := range [][2]isa.Reg{{isa.RegNone, isa.RegNone}, {isa.RIP, isa.RegNone}, {isa.R15, isa.R15}} {
		if _, err := DecodeSites(record(regs[0], regs[1])); err != nil {
			t.Errorf("base %v index %v rejected: %v", regs[0], regs[1], err)
		}
	}
}

func TestSitesFromBinary(t *testing.T) {
	bin := &relf.Binary{}
	if _, err := SitesFrom(bin); err == nil {
		t.Error("binary without site table accepted")
	}
	bin.AddSection(&relf.Section{Name: SitesSection, Kind: relf.SecMeta,
		Data: EncodeSites([]Check{{PC: 9, Merged: 1}})})
	checks, err := SitesFrom(bin)
	if err != nil || len(checks) != 1 || checks[0].PC != 9 {
		t.Errorf("SitesFrom = %v, %v", checks, err)
	}
}

func TestCheckCostModel(t *testing.T) {
	full := &Check{Mode: ModeFull, Leader: true, SavedRegs: 4, SaveFlags: true}
	rz := &Check{Mode: ModeRedzone, Leader: true, SavedRegs: 4, SaveFlags: true}
	nosize := &Check{Mode: ModeFull, Leader: true, SavedRegs: 4, SaveFlags: true,
		NoSizeCheck: true}
	follower := &Check{Mode: ModeFull} // non-leader: no save cost

	cFull := checkCost(full, true, false)
	cRz := checkCost(rz, false, true)
	cNoSize := checkCost(nosize, true, false)
	cFollower := checkCost(follower, true, false)

	if cNoSize >= cFull {
		t.Errorf("-size did not reduce cost: %d vs %d", cNoSize, cFull)
	}
	if cFollower >= cFull {
		t.Errorf("batched follower not cheaper than leader: %d vs %d", cFollower, cFull)
	}
	if cRz > cFull {
		t.Errorf("redzone-only costs more than full: %d vs %d", cRz, cFull)
	}
	// Non-fat early exit is the cheapest full-check path.
	cEarly := checkCost(full, false, false)
	if cEarly >= cFull {
		t.Errorf("non-fat early exit not cheaper: %d vs %d", cEarly, cFull)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeRedzone: "redzone", ModeFull: "full", ModeProfile: "profile",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", m, m.String())
		}
	}
}
