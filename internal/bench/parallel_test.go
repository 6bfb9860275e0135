package bench

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"redfat/internal/mem"
	"redfat/internal/telemetry"
)

// TestFanOutOrder checks that results come back in unit order regardless
// of pool width or completion order.
func TestFanOutOrder(t *testing.T) {
	for _, width := range []int{1, 3, 8, 64} {
		h := &Harness{Parallel: width}
		got, err := fanOut(h, "order", 50,
			func(i int) string { return fmt.Sprintf("u%d", i) },
			func(i int, _ *telemetry.Registry) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("width %d: unit %d = %d, want %d", width, i, v, i*i)
			}
		}
	}
}

// TestFanOutFirstErrorCancels checks that a failing unit cancels the
// un-started remainder and that its error is the one returned.
func TestFanOutFirstErrorCancels(t *testing.T) {
	boom := errors.New("boom")
	var ran [10]bool
	h := &Harness{Parallel: 1} // serial: deterministic unit order
	_, err := fanOut(h, "cancel", len(ran),
		func(i int) string { return fmt.Sprintf("u%d", i) },
		func(i int, _ *telemetry.Registry) (int, error) {
			ran[i] = true
			if i == 3 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	for i := 0; i <= 3; i++ {
		if !ran[i] {
			t.Errorf("unit %d did not run before the failure", i)
		}
	}
	for i := 4; i < len(ran); i++ {
		if ran[i] {
			t.Errorf("unit %d ran after unit 3 failed", i)
		}
	}
}

// TestFanOutProgress checks the per-unit progress lines: one line per
// unit, the done counter reaching n/n, and the FAIL marker on errors.
func TestFanOutProgress(t *testing.T) {
	var buf bytes.Buffer
	h := &Harness{Parallel: 4, Progress: &buf}
	if _, err := fanOut(h, "prog", 12,
		func(i int) string { return fmt.Sprintf("u%d", i) },
		func(i int, _ *telemetry.Registry) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 12 {
		t.Fatalf("progress lines = %d, want 12:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[len(lines)-1], "(12/12)") {
		t.Errorf("last line %q missing (12/12)", lines[len(lines)-1])
	}

	buf.Reset()
	boom := errors.New("boom")
	_, err := fanOut(&Harness{Parallel: 1, Progress: &buf}, "prog", 3,
		func(i int) string { return fmt.Sprintf("u%d", i) },
		func(i int, _ *telemetry.Registry) (int, error) {
			if i == 1 {
				return 0, boom
			}
			return i, nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want %v", err, boom)
	}
	if !strings.Contains(buf.String(), "prog u1: FAIL: boom") {
		t.Errorf("progress output missing FAIL line:\n%s", buf.String())
	}
}

// TestFanOutTelemetryMerge checks single-owner aggregation: each unit
// writes to its private registry and the aggregate holds the exact sum
// after the pool quiesces.
func TestFanOutTelemetryMerge(t *testing.T) {
	agg := telemetry.New()
	h := &Harness{Parallel: 8, Metrics: agg}
	const n = 40
	if _, err := fanOut(h, "merge", n,
		func(i int) string { return fmt.Sprintf("u%d", i) },
		func(i int, reg *telemetry.Registry) (int, error) {
			reg.Counter("test.units").Inc()
			reg.Counter("test.weight").Add(uint64(i))
			reg.Histogram("test.hist", telemetry.Pow2Bounds(0, 4)).Observe(uint64(i))
			return i, nil
		}); err != nil {
		t.Fatal(err)
	}
	if got := agg.CounterValue("test.units"); got != n {
		t.Errorf("test.units = %d, want %d", got, n)
	}
	want := uint64(n * (n - 1) / 2)
	if got := agg.CounterValue("test.weight"); got != want {
		t.Errorf("test.weight = %d, want %d", got, want)
	}
	if got := agg.Snapshot().Histograms["test.hist"].Count; got != n {
		t.Errorf("test.hist count = %d, want %d", got, n)
	}
}

// TestTLBParallelRace hammers guest-memory mapping churn — Map, Protect,
// Unmap interleaved with loads and stores that hit and miss the software
// TLB — across a wide worker pool. Each unit owns a private Memory, so a
// -race run proves the TLB carries no shared mutable state through the
// harness, and each unit cross-checks its TLB results against a NoTLB
// shadow for identity.
func TestTLBParallelRace(t *testing.T) {
	h := &Harness{Parallel: 8}
	const units = 24
	if _, err := fanOut(h, "tlbrace", units,
		func(i int) string { return fmt.Sprintf("u%d", i) },
		func(unit int, _ *telemetry.Registry) (int, error) {
			rng := rand.New(rand.NewSource(int64(unit)))
			m := mem.New()
			shadow := mem.New()
			shadow.NoTLB = true
			const (
				base  = uint64(0x4000)
				pages = 32
				span  = pages * mem.PageSize
			)
			m.Map(base, span, mem.PermRW)
			shadow.Map(base, span, mem.PermRW)
			for op := 0; op < 3000; op++ {
				page := base + uint64(rng.Intn(pages))*mem.PageSize
				addr := base + uint64(rng.Intn(span-16))
				switch rng.Intn(6) {
				case 0:
					m.Protect(page, mem.PageSize, mem.PermRead)
					shadow.Protect(page, mem.PageSize, mem.PermRead)
				case 1:
					m.Protect(page, mem.PageSize, mem.PermRW)
					shadow.Protect(page, mem.PageSize, mem.PermRW)
				case 2:
					m.Unmap(page, mem.PageSize)
					shadow.Unmap(page, mem.PageSize)
					m.Map(page, mem.PageSize, mem.PermRW)
					shadow.Map(page, mem.PageSize, mem.PermRW)
				case 3:
					if err := m.Store(addr, 8, uint64(op)); err == nil {
						shadow.Store(addr, 8, uint64(op))
					} else if shadow.Store(addr, 8, uint64(op)) == nil {
						return 0, fmt.Errorf("unit %d op %d: store diverged at %#x", unit, op, addr)
					}
				default:
					a, errA := m.Load(addr, 8)
					b, errB := shadow.Load(addr, 8)
					if (errA == nil) != (errB == nil) || a != b {
						return 0, fmt.Errorf("unit %d op %d: load diverged at %#x: %v/%v %d/%d",
							unit, op, addr, errA, errB, a, b)
					}
				}
			}
			return unit, nil
		}); err != nil {
		t.Fatal(err)
	}
}

// TestFigure8ParallelIdentity checks that the rendered Figure 8 output is
// byte-identical between the serial harness and a wide pool.
func TestFigure8ParallelIdentity(t *testing.T) {
	render := func(width int) (string, []Fig8Row, float64) {
		var buf bytes.Buffer
		rows, gm, err := (&Harness{Parallel: width}).Figure8(512, 300, &buf)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return buf.String(), rows, gm
	}
	serialOut, serialRows, serialGM := render(1)
	parOut, parRows, parGM := render(8)
	if serialOut != parOut {
		t.Errorf("rendered output differs between serial and parallel:\n--- serial\n%s--- parallel\n%s",
			serialOut, parOut)
	}
	if !reflect.DeepEqual(serialRows, parRows) || serialGM != parGM {
		t.Errorf("rows/geomean differ: serial %v (%v), parallel %v (%v)",
			serialRows, serialGM, parRows, parGM)
	}
}

// TestTable2ExtendedParallelIdentity checks serial/parallel identity on
// the temporal-error suites (per-case fan-out).
func TestTable2ExtendedParallelIdentity(t *testing.T) {
	render := func(width int) (string, []Table2Row) {
		var buf bytes.Buffer
		rows, err := (&Harness{Parallel: width}).Table2Extended(&buf)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return buf.String(), rows
	}
	serialOut, serialRows := render(1)
	parOut, parRows := render(8)
	if serialOut != parOut {
		t.Errorf("rendered output differs:\n--- serial\n%s--- parallel\n%s", serialOut, parOut)
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Errorf("rows differ: serial %v, parallel %v", serialRows, parRows)
	}
}

// TestTable1ParallelIdentity checks that the full Table 1 pipeline —
// rendered bytes, rows, and aggregate telemetry — is identical between
// the serial harness and a wide pool.
func TestTable1ParallelIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full Table 1 comparison skipped in -short mode")
	}
	render := func(width int) (string, []*Table1Row, *telemetry.Snapshot) {
		var buf bytes.Buffer
		h := &Harness{Parallel: width, Metrics: telemetry.New()}
		rows, err := h.Table1(0.02, &buf)
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		return buf.String(), rows, h.Metrics.Snapshot()
	}
	serialOut, serialRows, serialTel := render(1)
	parOut, parRows, parTel := render(8)
	// The superblock compile-time histogram is wall-clock host timing;
	// its bucket placement legitimately differs between two executions.
	// Every other metric is deterministic and must match exactly.
	delete(serialTel.Histograms, "vm.jit.compile.ns")
	delete(parTel.Histograms, "vm.jit.compile.ns")
	if serialOut != parOut {
		t.Errorf("rendered table differs between serial and parallel:\n--- serial\n%s--- parallel\n%s",
			serialOut, parOut)
	}
	if !reflect.DeepEqual(serialRows, parRows) {
		t.Errorf("rows differ between serial and parallel")
	}
	if !reflect.DeepEqual(serialTel, parTel) {
		t.Errorf("aggregate telemetry differs between serial and parallel")
	}
	if serialTel.Counters["vm.retired.total"] == 0 {
		t.Errorf("aggregate telemetry has no retired instructions")
	}
}

// TestAblationParallelIdentity checks that each grid sweep's rows,
// rendered text and aggregate telemetry (host timings stripped) are
// identical between the serial harness and a pool of three workers.
func TestAblationParallelIdentity(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(h *Harness, w io.Writer) (any, error)
	}{
		{"batch", func(h *Harness, w io.Writer) (any, error) { return h.BatchSweep("povray", 0.02, w) }},
		{"clobber", func(h *Harness, w io.Writer) (any, error) { return h.ClobberSweep("sjeng", 0.02, w) }},
		{"dataflow", func(h *Harness, w io.Writer) (any, error) {
			return h.DataflowSweep([]string{"libquantum", "povray", "calculix", "sjeng"}, 0.02, w)
		}},
		{"indirect", func(h *Harness, w io.Writer) (any, error) { return h.IndirectSweep(nil, 0.02, w) }},
	}
	for _, s := range sweeps {
		t.Run(s.name, func(t *testing.T) {
			render := func(width int) (string, any, *telemetry.Snapshot) {
				var buf bytes.Buffer
				h := &Harness{Parallel: width, Metrics: telemetry.New()}
				rows, err := s.run(h, &buf)
				if err != nil {
					t.Fatalf("width %d: %v", width, err)
				}
				return buf.String(), rows, h.Metrics.Snapshot().StripHostTime()
			}
			serialOut, serialRows, serialTel := render(1)
			parOut, parRows, parTel := render(3)
			if serialOut != parOut {
				t.Errorf("rendered output differs:\n--- serial\n%s--- parallel\n%s", serialOut, parOut)
			}
			if !reflect.DeepEqual(serialRows, parRows) {
				t.Errorf("rows differ: serial %+v, parallel %+v", serialRows, parRows)
			}
			if !reflect.DeepEqual(serialTel, parTel) {
				t.Errorf("aggregate telemetry differs between serial and parallel")
			}
			if serialTel.Counters["vm.retired.total"] == 0 {
				t.Errorf("aggregate telemetry has no retired instructions")
			}
		})
	}
}
