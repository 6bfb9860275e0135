//go:build perfsmoke

package vm_test

// The wall-clock perf guards run only under `make perf-smoke`, which sets
// the perfsmoke build tag: they compare host timings, which a loaded or
// shared host can skew, so they stay out of the deterministic tier-1
// `go test ./...`.

import "testing"

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
