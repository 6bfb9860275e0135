package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// HistogramSnapshot is the exported form of one histogram. Counts has one
// entry per bound plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []uint64 `json:"bounds"`
	Counts []uint64 `json:"counts"`
	Count  uint64   `json:"count"`
	Sum    uint64   `json:"sum"`
}

// SchemaVersion versions the exported JSON shape, so a reader of a
// stored snapshot (a run pack's telemetry.json, an rfbench -json
// document) can tell a changed shape from a misparse.
const SchemaVersion = 1

// Snapshot is a point-in-time copy of a registry, shaped for JSON export.
type Snapshot struct {
	SchemaVersion int                          `json:"schema_version"`
	Counters      map[string]uint64            `json:"counters,omitempty"`
	Gauges        map[string]uint64            `json:"gauges,omitempty"`
	Histograms    map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot copies the registry's current values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		SchemaVersion: SchemaVersion,
		Counters:      map[string]uint64{},
		Gauges:        map[string]uint64{},
		Histograms:    map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	for name, c := range r.counters {
		s.Counters[name] = c.v
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.v
	}
	for name, h := range r.hists {
		s.Histograms[name] = HistogramSnapshot{
			Bounds: append([]uint64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		}
	}
	return s
}

// WriteJSON writes the registry as one indented JSON object.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// promName maps a dotted metric name to the Prometheus exposition charset
// with the redfat namespace prefix: "vm.retired.mov" → "redfat_vm_retired_mov".
func promName(name string) string {
	var b strings.Builder
	b.WriteString("redfat_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (histograms as cumulative _bucket/_sum/_count series).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (histograms as cumulative _bucket/_sum/_count series).
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(s.Counters) {
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", pn, pn, s.Counters[name])
	}
	for _, name := range sortedKeys(s.Gauges) {
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", pn, pn, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		pn := promName(name)
		fmt.Fprintf(bw, "# TYPE %s histogram\n", pn)
		cum := uint64(0)
		for i, b := range h.Bounds {
			cum += h.Counts[i]
			fmt.Fprintf(bw, "%s_bucket{le=\"%d\"} %d\n", pn, b, cum)
		}
		fmt.Fprintf(bw, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(bw, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(bw, "%s_count %d\n", pn, h.Count)
	}
	return bw.Flush()
}

// WriteText writes a compact human-readable report: non-zero counters,
// all gauges, and histogram summaries, sorted by name.
func (r *Registry) WriteText(w io.Writer) error {
	return r.Snapshot().WriteText(w)
}

// WriteText writes the snapshot as a compact human-readable report:
// non-zero counters, all gauges, and histogram summaries, sorted by name.
func (s *Snapshot) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, name := range sortedKeys(s.Counters) {
		if v := s.Counters[name]; v != 0 {
			fmt.Fprintf(bw, "%-32s %12d\n", name, v)
		}
	}
	for _, name := range sortedKeys(s.Gauges) {
		fmt.Fprintf(bw, "%-32s %12d\n", name, s.Gauges[name])
	}
	for _, name := range sortedKeys(s.Histograms) {
		h := s.Histograms[name]
		if h.Count == 0 {
			continue
		}
		fmt.Fprintf(bw, "%-32s %12d observations, mean %.1f\n",
			name, h.Count, float64(h.Sum)/float64(h.Count))
		for i, b := range h.Bounds {
			if h.Counts[i] != 0 {
				fmt.Fprintf(bw, "    ≤ %-12d %12d\n", b, h.Counts[i])
			}
		}
		if n := len(h.Bounds); n > 0 && h.Counts[n] != 0 {
			fmt.Fprintf(bw, "    > %-12d %12d\n", h.Bounds[n-1], h.Counts[n])
		}
	}
	return bw.Flush()
}

// hostTimeSuffixes mark series measured in host wall-clock units. Any
// new host-time metric must use one of these suffixes so every consumer
// that needs guest-deterministic output (rfvm -stats, /snapshot,
// identity tests) strips it through this one filter.
var hostTimeSuffixes = []string{".ns", ".ms"}

// isHostTime reports whether a metric name denotes host wall-clock time.
func isHostTime(name string) bool {
	for _, suf := range hostTimeSuffixes {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// StripHostTime removes every host-wall-clock series (".ns"/".ms"
// suffixed) from the snapshot in place, leaving only guest-deterministic
// data: the shared filter behind rfvm -stats and the /snapshot endpoint.
func (s *Snapshot) StripHostTime() *Snapshot {
	for name := range s.Counters {
		if isHostTime(name) {
			delete(s.Counters, name)
		}
	}
	for name := range s.Gauges {
		if isHostTime(name) {
			delete(s.Gauges, name)
		}
	}
	for name := range s.Histograms {
		if isHostTime(name) {
			delete(s.Histograms, name)
		}
	}
	return s
}
