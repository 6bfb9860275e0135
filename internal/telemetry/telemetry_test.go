package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z", Pow2Bounds(1, 4))
	c.Inc()
	c.Add(7)
	g.Set(3)
	g.Add(2)
	g.Sub(9)
	h.Observe(5)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles must be inert")
	}
	if r.CounterValue("x") != 0 || r.GaugeValue("y") != 0 {
		t.Error("nil registry reads must be zero")
	}
	if s := r.Snapshot(); len(s.Counters) != 0 {
		t.Error("nil registry snapshot must be empty")
	}
}

func TestRegistryIdentityAndValues(t *testing.T) {
	r := New()
	c := r.Counter("heap.allocs")
	c.Inc()
	c.Add(4)
	if r.Counter("heap.allocs") != c {
		t.Error("same name must return the same counter handle")
	}
	if got := r.CounterValue("heap.allocs"); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	g := r.Gauge("heap.live.bytes")
	g.Set(100)
	g.Sub(250) // saturates
	if got := g.Value(); got != 0 {
		t.Errorf("gauge after saturating Sub = %d, want 0", got)
	}
	if r.CounterValue("missing") != 0 {
		t.Error("reading a missing counter must not create or fail")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("sizes", Pow2Bounds(2, 4)) // bounds 4, 8, 16
	for _, v := range []uint64{1, 4, 5, 16, 17, 1000} {
		h.Observe(v)
	}
	if h.Count() != 6 || h.Sum() != 1+4+5+16+17+1000 {
		t.Errorf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	snap := r.Snapshot().Histograms["sizes"]
	want := []uint64{2, 1, 1, 2} // ≤4: {1,4}; ≤8: {5}; ≤16: {16}; over: {17,1000}
	if len(snap.Counts) != len(want) {
		t.Fatalf("bucket count = %d, want %d", len(snap.Counts), len(want))
	}
	for i, w := range want {
		if snap.Counts[i] != w {
			t.Errorf("bucket[%d] = %d, want %d", i, snap.Counts[i], w)
		}
	}
}

func TestJSONExportRoundTrips(t *testing.T) {
	r := New()
	r.Counter("check.execs").Add(12)
	r.Gauge("vm.cycles").Set(987)
	r.Histogram("cost", []uint64{10, 100}).Observe(50)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var s Snapshot
	if err := json.Unmarshal(buf.Bytes(), &s); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if s.Counters["check.execs"] != 12 || s.Gauges["vm.cycles"] != 987 {
		t.Errorf("round-trip lost values: %+v", s)
	}
	if h := s.Histograms["cost"]; h.Count != 1 || h.Sum != 50 {
		t.Errorf("histogram round-trip: %+v", h)
	}
}

func TestPrometheusExport(t *testing.T) {
	r := New()
	r.Counter("vm.retired.total").Add(3)
	r.Histogram("vm.rtcall.dispatch.cycles", []uint64{4, 8}).Observe(6)
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE redfat_vm_retired_total counter",
		"redfat_vm_retired_total 3",
		"# TYPE redfat_vm_rtcall_dispatch_cycles histogram",
		`redfat_vm_rtcall_dispatch_cycles_bucket{le="4"} 0`,
		`redfat_vm_rtcall_dispatch_cycles_bucket{le="8"} 1`,
		`redfat_vm_rtcall_dispatch_cycles_bucket{le="+Inf"} 1`,
		"redfat_vm_rtcall_dispatch_cycles_sum 6",
		"redfat_vm_rtcall_dispatch_cycles_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
