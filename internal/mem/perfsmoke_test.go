//go:build perfsmoke

package mem

// The wall-clock perf guard runs only under `make perf-smoke`, which sets
// the perfsmoke build tag: it compares host timings, which a loaded or
// shared host can skew, so it stays out of the deterministic tier-1
// `go test ./...`.

import "testing"

// TestPerfSmokeTLB is the cheap perf guard of `make perf-smoke`: on the
// dispatch-shaped micro (a load loop over a multi-page working set) the
// TLB path must not be slower than the page-table walk. It compares the two
// paths against each other rather than an absolute threshold, so it is
// robust to slow CI hosts; it retries to ride out scheduling noise.
func TestPerfSmokeTLB(t *testing.T) {
	if testing.Short() {
		t.Skip("perf smoke skipped in -short (race) mode")
	}
	measure := func(noTLB bool) float64 {
		m := New()
		m.NoTLB = noTLB
		m.Map(0x10000, 16*PageSize, PermRW)
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addr := 0x10000 + uint64(i%(16*PageSize-8))
				if _, err := m.Load(addr, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
		return float64(res.NsPerOp())
	}
	for attempt := 1; ; attempt++ {
		tlb, pmap := measure(false), measure(true)
		if tlb <= pmap*1.05 { // equality tolerance: both paths in noise
			t.Logf("tlb %.2f ns/access vs walk %.2f ns/access", tlb, pmap)
			return
		}
		if attempt == 3 {
			t.Fatalf("TLB path slower than page-table walk after %d attempts: %.2f vs %.2f ns/access",
				attempt, tlb, pmap)
		}
	}
}
