package bench

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"redfat/internal/forensics"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// GuestProfRow summarizes one benchmark's guest profile under the
// production (fully optimized) hardened configuration.
type GuestProfRow struct {
	Name    string  `json:"name"`
	Samples uint64  `json:"samples"`
	Cycles  uint64  `json:"cycles"`           // cycles attributed across samples
	Hottest string  `json:"hottest"`          // symbolized hottest leaf PC
	HotPct  float64 `json:"hot_pct"`          // its share of attributed cycles
	Folded  string  `json:"folded,omitempty"` // folded-stack file, if written
}

// GuestProfiles runs every benchmark hardened with the production
// configuration under the guest sampling profiler and summarizes the hot
// sites. When dir is non-empty, each benchmark's folded stacks
// (flamegraph input) are written to dir/<name>.folded. Benchmarks fan
// out as pool units; the profiler itself never perturbs guest cycles.
func (h *Harness) GuestProfiles(scale float64, dir string, w io.Writer) ([]GuestProfRow, error) {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	bms := workload.All()
	rows, err := fanOut(h, "guestprof", len(bms),
		func(i int) string { return bms[i].Name },
		func(i int, reg *telemetry.Registry) (GuestProfRow, error) {
			bm := scaled(bms[i], scale)
			bin, err := bm.Build()
			if err != nil {
				return GuestProfRow{}, err
			}
			hard, _, err := redfat.Harden(bin, redfat.Defaults())
			if err != nil {
				return GuestProfRow{}, err
			}
			prof := &vm.GuestProfiler{}
			_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{
				Input: bm.RefInput(), Metrics: reg, Profiler: prof,
			})
			if err != nil {
				return GuestProfRow{}, fmt.Errorf("%s profiled run: %w", bm.Name, err)
			}
			sym := forensics.NewSymbolizer(hard)
			row := GuestProfRow{
				Name:    bm.Name,
				Samples: prof.SampleCount(),
				Cycles:  prof.TotalCycles(),
			}
			if hot := prof.HotPCs(); len(hot) > 0 {
				row.Hottest = sym.Format(hot[0].Stack[0])
				if row.Cycles > 0 {
					row.HotPct = 100 * float64(hot[0].Cycles) / float64(row.Cycles)
				}
			}
			if dir != "" {
				path := filepath.Join(dir, bm.Name+".folded")
				f, err := os.Create(path)
				if err != nil {
					return GuestProfRow{}, err
				}
				if err := forensics.WriteFolded(f, prof, sym); err != nil {
					f.Close()
					return GuestProfRow{}, err
				}
				if err := f.Close(); err != nil {
					return GuestProfRow{}, err
				}
				row.Folded = path
			}
			return row, nil
		})
	if err != nil {
		return nil, err
	}
	if w != nil {
		for _, r := range rows {
			fmt.Fprintf(w, "%-12s %8d samples %14d cycles  hottest %s (%.1f%%)\n",
				r.Name, r.Samples, r.Cycles, r.Hottest, r.HotPct)
		}
	}
	return rows, nil
}
