//go:build perfsmoke

package vm_test

// The wall-clock perf guards run only under `make perf-smoke`, which sets
// the perfsmoke build tag: they compare host timings, which a loaded or
// shared host can skew, so they stay out of the deterministic tier-1
// `go test ./...`.

import (
	"testing"

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
// fails here. Same relative back-to-back measurement and retry shape as
// TestPerfSmokeJIT, with more attempts because the margin is narrower.
func TestPerfSmokeFlight(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped in -short (race) mode")
	}
	bin := buildBench(t, benchHotLoop(200_000))
	measure := func(flight *obs.Flight) float64 {
		var insts uint64
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				insts = benchRunFlight(b, bin, flight)
			}
		})
		return float64(res.NsPerOp()) / float64(insts)
	}
	for attempt := 1; ; attempt++ {
		off, on := measure(nil), measure(obs.NewFlight(0))
		if on <= off*1.03 {
			t.Logf("flight-on %.2f ns/inst vs flight-off %.2f ns/inst (%+.1f%%)",
				on, off, (on/off-1)*100)
			return
		}
		if attempt == 5 {
			t.Fatalf("flight recorder costs more than 3%% on hot-loop dispatch after %d attempts: %.2f vs %.2f ns/inst",
				attempt, on, off)
		}
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
