// Package telemetry is the metrics layer of the RedFat reproduction: a
// low-overhead registry of counters, gauges and bounded histograms.
// Events (what happened, in order) are not metrics; they go to the
// flight recorder in internal/obs.
//
// Every instrumented layer — the VM dispatch loop, the allocators, the
// check runtime, the rewriter — holds *handles* (pointers to Counter,
// Gauge, Histogram) obtained from a Registry once, and bumps them on the
// hot path without any map lookups. All handle methods are nil-safe:
// when telemetry is not attached the handles are nil and every operation
// is a no-op, so disabled instrumentation costs a nil check and nothing
// else. Telemetry is host-side accounting only — it never charges guest
// cycles, so enabling it leaves measured slow-down factors bit-identical.
//
// The registry is not goroutine-safe; like the VM it serves, it is meant
// to be owned by a single execution. Handles are plain memory — no
// atomics, no locks — so concurrent use of one registry from several
// goroutines is a data race. The supported pattern for parallel
// experiments is single-owner aggregation: give every concurrent run its
// own Registry, wait for the runs to finish, then fold them into one
// aggregate with Merge from a single goroutine (the experiment harness in
// internal/bench does exactly this).
package telemetry

import "sort"

// Counter is a monotonically increasing metric.
type Counter struct {
	name string
	v    uint64
}

// Inc adds one. Nil-safe.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n. Nil-safe.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Name returns the registered name.
func (c *Counter) Name() string {
	if c == nil {
		return ""
	}
	return c.name
}

// Gauge is a metric that can move in both directions (live bytes,
// quarantine usage, final cycle counts).
type Gauge struct {
	name string
	v    uint64
}

// Set replaces the value. Nil-safe.
func (g *Gauge) Set(v uint64) {
	if g != nil {
		g.v = v
	}
}

// Add increases the value. Nil-safe.
func (g *Gauge) Add(n uint64) {
	if g != nil {
		g.v += n
	}
}

// Sub decreases the value, saturating at zero. Nil-safe.
func (g *Gauge) Sub(n uint64) {
	if g == nil {
		return
	}
	if n > g.v {
		g.v = 0
		return
	}
	g.v -= n
}

// Value returns the current value (0 for a nil gauge).
func (g *Gauge) Value() uint64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Name returns the registered name.
func (g *Gauge) Name() string {
	if g == nil {
		return ""
	}
	return g.name
}

// Histogram is a bounded histogram over uint64 observations: bucket i
// counts observations ≤ Bounds[i], with one overflow bucket at the end.
type Histogram struct {
	name   string
	bounds []uint64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
	count  uint64
	sum    uint64
}

// Observe records one observation. Nil-safe.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.count++
	h.sum += v
	// Bounded linear scan: histograms here have ~10 buckets, and a scan
	// beats binary search at that size.
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return
		}
	}
	h.counts[len(h.counts)-1]++
}

// Count returns the number of observations (0 for a nil histogram).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Sum returns the sum of all observations (0 for a nil histogram).
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	return h.sum
}

// Name returns the registered name.
func (h *Histogram) Name() string {
	if h == nil {
		return ""
	}
	return h.name
}

// Pow2Bounds builds histogram bounds 2^lo, 2^(lo+1), …, 2^hi — the usual
// shape for size-class and cost distributions.
func Pow2Bounds(lo, hi uint) []uint64 {
	if hi < lo {
		return nil
	}
	out := make([]uint64, 0, hi-lo+1)
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// Registry owns the metrics of one execution. The zero value of *Registry
// (nil) is a valid "telemetry off" registry: it hands out nil handles.
type Registry struct {
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. A nil registry returns a nil (no-op) counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c := r.counters[name]
	if c == nil {
		c = &Counter{name: name}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first
// use. A nil registry returns a nil (no-op) gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{name: name}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (bounds are ignored on subsequent
// calls). A nil registry returns a nil (no-op) histogram.
func (r *Registry) Histogram(name string, bounds []uint64) *Histogram {
	if r == nil {
		return nil
	}
	h := r.hists[name]
	if h == nil {
		h = &Histogram{
			name:   name,
			bounds: append([]uint64(nil), bounds...),
			counts: make([]uint64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Merge folds the metrics of other into r: counters and gauges add their
// values, histograms add bucket-wise when their bounds agree (same-name
// histograms created through the same code path always do); observations
// of a histogram whose bounds differ are folded into the overflow bucket,
// with count and sum still exact. Metrics that exist only in other are
// created in r. Merge is the single-owner aggregation step for parallel
// runs: it must be called after the goroutines owning the source
// registries have quiesced, from one goroutine. A nil r or other is a
// no-op.
func (r *Registry) Merge(other *Registry) {
	if r == nil || other == nil {
		return
	}
	for name, c := range other.counters {
		r.Counter(name).Add(c.v)
	}
	for name, g := range other.gauges {
		r.Gauge(name).Add(g.v)
	}
	for name, h := range other.hists {
		dst := r.Histogram(name, h.bounds)
		dst.count += h.count
		dst.sum += h.sum
		if boundsEqual(dst.bounds, h.bounds) {
			for i, c := range h.counts {
				dst.counts[i] += c
			}
			continue
		}
		var n uint64
		for _, c := range h.counts {
			n += c
		}
		dst.counts[len(dst.counts)-1] += n
	}
}

func boundsEqual(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterValue reads a counter by name without creating it.
func (r *Registry) CounterValue(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.counters[name].Value()
}

// GaugeValue reads a gauge by name without creating it.
func (r *Registry) GaugeValue(name string) uint64 {
	if r == nil {
		return 0
	}
	return r.gauges[name].Value()
}

func sortedKeys[M map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
