package redfat_test

import (
	"bytes"
	"testing"

	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/workload"
)

// TestNoIndirectIdentityNonMarker: for binaries without the .rf.jt
// marker the recovery never runs, so the -noindirect knob must be a
// perfect no-op — the hardened binaries are bit-identical outside the
// recorded config (which legitimately stores the knob for replay), and
// the guest results are identical. This is the knob's half of the
// identity matrix; the marker-built half (identical checksums, check
// counts allowed to differ) lives in the workload switch-dense tests.
func TestNoIndirectIdentityNonMarker(t *testing.T) {
	for _, name := range []string{"libquantum", "mcf"} {
		bm := workload.ByName(name)
		cp := *bm
		cp.TrainScale, cp.RefScale = 300, 1500
		t.Run(name, func(t *testing.T) {
			bin, err := cp.Build()
			if err != nil {
				t.Fatal(err)
			}
			var hards []*relf.Binary
			var cycles, exits []uint64
			for _, noind := range []bool{false, true} {
				opt := redfat.Defaults()
				opt.NoIndirect = noind
				hard, _, err := redfat.Harden(bin, opt)
				if err != nil {
					t.Fatal(err)
				}
				hards = append(hards, hard)
				v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: cp.RefInput()})
				if err != nil {
					t.Fatal(err)
				}
				cycles = append(cycles, v.Cycles)
				exits = append(exits, v.ExitCode)
			}
			if exits[0] != exits[1] || cycles[0] != cycles[1] {
				t.Errorf("guest results differ across -noindirect: %#x/%d vs %#x/%d",
					exits[0], cycles[0], exits[1], cycles[1])
			}
			a, b := hards[0], hards[1]
			if len(a.Sections) != len(b.Sections) {
				t.Fatalf("section counts differ: %d vs %d", len(a.Sections), len(b.Sections))
			}
			for i, sa := range a.Sections {
				sb := b.Sections[i]
				if sa.Name != sb.Name {
					t.Fatalf("section order differs: %q vs %q", sa.Name, sb.Name)
				}
				if sa.Name == redfat.ConfigSection {
					continue // records the knob itself
				}
				if sa.Addr != sb.Addr || sa.Size != sb.Size || !bytes.Equal(sa.Data, sb.Data) {
					t.Errorf("section %q differs across -noindirect on a non-marker input", sa.Name)
				}
			}
		})
	}
}
