//go:build perfsmoke

package vm_test

// The wall-clock perf guards run only under `make perf-smoke`, which sets
// the perfsmoke build tag: they compare host timings, which a loaded or
// shared host can skew, so they stay out of the deterministic tier-1
// `go test ./...`.

import (
	"slices"
	"testing"
	"time"

	"redfat/internal/heap"
	"redfat/internal/mem"
	"redfat/internal/obs"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// TestPerfSmokeJIT is the superblock tier's perf guard in `make perf-smoke`:
// on the hot-loop micro the compiled tier must beat the block
// interpreter by at least 20%. Relative comparison (both paths measured
// back to back), with retries to ride out scheduling noise; -short
// (the race pass) skips it.
func TestPerfSmokeJIT(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped in -short (race) mode")
	}
	bin := buildBench(t, benchHotLoop(200_000))
	measure := func(noJIT bool) float64 {
		var insts uint64
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insts = benchRun(b, bin, noJIT)
			}
		})
		return float64(res.NsPerOp()) / float64(insts)
	}
	for attempt := 1; ; attempt++ {
		jit, interp := measure(false), measure(true)
		if jit <= interp*0.8 {
			t.Logf("jit %.2f ns/inst vs interpreter %.2f ns/inst (%.1f%% faster)",
				jit, interp, (1-jit/interp)*100)
			return
		}
		if attempt == 3 {
			t.Fatalf("superblock tier not ≥20%% faster after %d attempts: %.2f vs %.2f ns/inst",
				attempt, jit, interp)
		}
	}
}

// TestPerfSmokeFlight is the flight recorder's hot-path guard: with a
// recorder attached, hot-loop dispatch (trace entries record one ring
// event per iteration) must stay within 3% of the bare run. The budget
// is deliberately tight — the ring write is a handful of stores into a
// preallocated slice — so a Record that starts allocating or locking
// fails here.
//
// Host speed drifts by more than 3% over the seconds a measurement
// takes, so the guard compares like with like: it times short
// flight-off and flight-on samples in adjacent pairs, swapping which
// goes first from pair to pair, and holds the median of the per-pair
// on/off ratios to the bound. The log line gives that median and its
// interquartile range.
func TestPerfSmokeFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped in -short (race) mode")
	}
	const (
		pairs      = 21
		runsPerArm = 24 // hot-loop runs per sample, ~7 ms each
	)
	bin := buildBench(t, benchHotLoop(200_000))
	sample := func(flight *obs.Flight) float64 {
		var insts uint64
		start := time.Now()
		for i := 0; i < runsPerArm; i++ {
			insts += benchRunFlight(t, bin, flight)
		}
		return float64(time.Since(start).Nanoseconds()) / float64(insts)
	}
	ratios := make([]float64, pairs)
	for i := range ratios {
		var off, on float64
		if i%2 == 0 {
			off = sample(nil)
			on = sample(obs.NewFlight(0))
		} else {
			on = sample(obs.NewFlight(0))
			off = sample(nil)
		}
		ratios[i] = on / off
	}
	slices.Sort(ratios)
	med, q1, q3 := ratios[pairs/2], ratios[pairs/4], ratios[3*pairs/4]
	t.Logf("flight-on/flight-off over %d alternating pairs: median %.4f (%+.1f%%), IQR [%.4f, %.4f]",
		pairs, med, (med-1)*100, q1, q3)
	if med > 1.03 {
		t.Fatalf("flight recorder costs more than 3%% on hot-loop dispatch: median on/off ratio %.4f, IQR [%.4f, %.4f]",
			med, q1, q3)
	}
}

// benchRunFlight is benchRun with a flight recorder attached (nil runs
// bare, the flight-off baseline).
func benchRunFlight(tb testing.TB, bin *relf.Binary, flight *obs.Flight) uint64 {
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 2_000_000_000
	v.JITThreshold = 8
	v.Flight = flight
	m.Flight = flight
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		tb.Fatal(err)
	}
	if err := v.Run(); err != nil {
		tb.Fatal(err)
	}
	return v.Insts
}
