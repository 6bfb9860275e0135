package telemetry_test

import (
	"reflect"
	"sync"
	"testing"

	"redfat/internal/telemetry"
)

// TestMergeAddsValues checks counter addition, the gauge maximum (from
// either side) and the creation of metrics that exist only in the source
// registry.
func TestMergeAddsValues(t *testing.T) {
	dst := telemetry.New()
	dst.Counter("shared.c").Add(10)
	dst.Gauge("shared.g").Set(5)
	dst.Gauge("rising.g").Set(2)

	src := telemetry.New()
	src.Counter("shared.c").Add(7)
	src.Gauge("shared.g").Set(3)
	src.Gauge("rising.g").Set(9)
	src.Counter("only.src").Add(2)

	dst.Merge(src)
	if got := dst.CounterValue("shared.c"); got != 17 {
		t.Errorf("shared.c = %d, want 17", got)
	}
	if got := dst.GaugeValue("shared.g"); got != 5 {
		t.Errorf("shared.g = %d, want 5", got)
	}
	if got := dst.GaugeValue("rising.g"); got != 9 {
		t.Errorf("rising.g = %d, want 9", got)
	}
	if got := dst.CounterValue("only.src"); got != 2 {
		t.Errorf("only.src = %d, want 2", got)
	}
}

// TestMergeHistograms checks bucket-wise addition for matching bounds and
// the exact count/sum overflow fold for mismatched bounds.
func TestMergeHistograms(t *testing.T) {
	bounds := telemetry.Pow2Bounds(0, 3) // 1, 2, 4, 8
	dst := telemetry.New()
	dst.Histogram("h", bounds).Observe(1)
	dst.Histogram("h", bounds).Observe(100) // overflow

	src := telemetry.New()
	src.Histogram("h", bounds).Observe(2)
	src.Histogram("h", bounds).Observe(8)

	dst.Merge(src)
	got := dst.Snapshot().Histograms["h"]
	want := telemetry.HistogramSnapshot{
		Bounds: []uint64{1, 2, 4, 8},
		Counts: []uint64{1, 1, 0, 1, 1},
		Count:  4,
		Sum:    111,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("merged histogram = %+v, want %+v", got, want)
	}

	// Mismatched bounds: count and sum stay exact, observations land in
	// the destination's overflow bucket.
	odd := telemetry.New()
	odd.Histogram("h", telemetry.Pow2Bounds(5, 7)).Observe(3)
	odd.Histogram("h", telemetry.Pow2Bounds(5, 7)).Observe(64)
	dst.Merge(odd)
	got = dst.Snapshot().Histograms["h"]
	if got.Count != 6 || got.Sum != 178 {
		t.Errorf("after mismatched merge: count %d sum %d, want 6/178", got.Count, got.Sum)
	}
	if got.Counts[len(got.Counts)-1] != 1+2 {
		t.Errorf("overflow bucket = %d, want 3", got.Counts[len(got.Counts)-1])
	}
}

// TestMergeNilSafety checks that nil receivers and arguments are no-ops.
func TestMergeNilSafety(t *testing.T) {
	var nilReg *telemetry.Registry
	nilReg.Merge(telemetry.New()) // must not panic
	r := telemetry.New()
	r.Counter("c").Inc()
	r.Merge(nil)
	if got := r.CounterValue("c"); got != 1 {
		t.Errorf("c = %d after Merge(nil), want 1", got)
	}
}

// TestSingleOwnerAggregation exercises the documented concurrency
// contract under the race detector: one private registry per goroutine,
// merged by a single owner only after every writer has quiesced.
func TestSingleOwnerAggregation(t *testing.T) {
	const workers, perWorker = 8, 1000
	regs := make([]*telemetry.Registry, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		reg := telemetry.New()
		regs[w] = reg
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("work.done")
			h := reg.Histogram("work.size", telemetry.Pow2Bounds(0, 8))
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(uint64(i % 300))
			}
		}()
	}
	wg.Wait()
	agg := telemetry.New()
	for _, reg := range regs {
		agg.Merge(reg)
	}
	if got := agg.CounterValue("work.done"); got != workers*perWorker {
		t.Errorf("work.done = %d, want %d", got, workers*perWorker)
	}
	if got := agg.Snapshot().Histograms["work.size"].Count; got != workers*perWorker {
		t.Errorf("work.size count = %d, want %d", got, workers*perWorker)
	}
}
