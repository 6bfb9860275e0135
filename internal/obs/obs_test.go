package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redfat/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite the golden endpoint files")

func TestFlightRingWrapsOldestFirst(t *testing.T) {
	f := NewFlight(4)
	var cyc uint64
	f.BindCycles(&cyc)
	for i := uint64(0); i < 10; i++ {
		cyc = i * 100
		f.Record(EvBlockEntry, 0, 0x1000+i, i)
	}
	if got := f.Total(); got != 10 {
		t.Fatalf("Total = %d, want 10", got)
	}
	if got := f.Capacity(); got != 4 {
		t.Fatalf("Capacity = %d, want 4", got)
	}
	evs := f.Dump().Events
	if len(evs) != 4 {
		t.Fatalf("retained %d events, want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(6 + i) // oldest retained is seq 6 of 0..9
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d, want %d", i, e.Seq, wantSeq)
		}
		if e.Cycles != wantSeq*100 || e.PC != 0x1000+wantSeq || e.Arg != wantSeq {
			t.Errorf("event %d: %+v does not match its record call", i, e)
		}
	}
}

func TestFlightDefaultCapacityAndNilSafety(t *testing.T) {
	if got := NewFlight(0).Capacity(); got != DefaultFlightCapacity {
		t.Errorf("NewFlight(0) capacity = %d, want %d", got, DefaultFlightCapacity)
	}
	var f *Flight
	f.Record(EvDeopt, 1, 2, 3) // must not panic
	f.BindCycles(nil)
	f.SetLabeler(nil)
	if f.Total() != 0 || f.Capacity() != 0 || f.Events() != nil {
		t.Error("nil flight is not empty")
	}
	d := f.Dump()
	if d.Total != 0 || len(d.Events) != 0 {
		t.Errorf("nil flight dump = %+v, want empty", d)
	}
	if d.Events == nil {
		t.Error("dump Events must be non-nil so JSON renders [] not null")
	}
}

func TestFlightDumpAppliesLabeler(t *testing.T) {
	f := NewFlight(8)
	f.SetLabeler(func(kind EventKind, reason uint8, pc uint64) string {
		if kind == EvDeopt && reason == 2 {
			return "halt"
		}
		return ""
	})
	f.Record(EvDeopt, 2, 0x40, 0x10)
	f.Record(EvBlockEntry, 0, 0x48, 1)
	d := f.Dump()
	if d.Events[0].Reason != "halt" {
		t.Errorf("deopt reason = %q, want \"halt\"", d.Events[0].Reason)
	}
	if d.Events[1].Reason != "" {
		t.Errorf("block-entry reason = %q, want empty", d.Events[1].Reason)
	}
	if d.Events[0].Kind != "deopt" || d.Events[1].Kind != "block-entry" {
		t.Errorf("kinds = %q, %q", d.Events[0].Kind, d.Events[1].Kind)
	}
}

func TestEventKindStringsAreDistinct(t *testing.T) {
	seen := map[string]EventKind{}
	for k := EventKind(0); k < numEventKinds; k++ {
		s := k.String()
		if s == "event?" {
			t.Errorf("kind %d has no name", k)
		}
		if prev, dup := seen[s]; dup {
			t.Errorf("kinds %d and %d share name %q", prev, k, s)
		}
		seen[s] = k
	}
}

// testState builds a fixed introspection state: a telemetry registry with
// every series type (including a host wall-clock series that must be
// stripped), a two-trace table, a small folded profile, and a flight dump.
func testState(t *testing.T) *State {
	t.Helper()
	reg := telemetry.New()
	reg.Counter("vm.retired.total").Add(1234)
	reg.Counter("vm.jit.deopt.count").Add(3)
	reg.Counter("vm.jit.deopt.side.count").Add(2)
	reg.Counter("vm.jit.deopt.halt.count").Add(1)
	reg.Counter("vm.jit.compile.ns").Add(987654) // host time: must be stripped
	reg.Gauge("vm.blocks.live").Set(7)
	reg.Histogram("vm.block.len", telemetry.Pow2Bounds(0, 4)).Observe(3)
	snap := reg.Snapshot().StripHostTime()

	flight := NewFlight(8)
	var cyc uint64
	flight.BindCycles(&cyc)
	flight.SetLabeler(func(kind EventKind, reason uint8, pc uint64) string {
		if kind == EvDeopt {
			return [...]string{"side", "dyn", "halt"}[reason]
		}
		return ""
	})
	cyc = 10
	flight.Record(EvBlockEntry, 0, 0x401000, 1)
	cyc = 250
	flight.Record(EvJITCompile, 0, 0x401000, 12)
	cyc = 300
	flight.Record(EvTraceEnter, 0, 0x401000, 0)
	cyc = 980
	flight.Record(EvDeopt, 2, 0x401038, 0x401000)

	st := &State{
		Telemetry: snap,
		Traces: []TraceRow{
			{EntryPC: 0x401000, EndPC: 0x401038, Symbol: "loop", Steps: 12, Checks: 3,
				Entries: 40, Deopts: []DeoptCount{{Reason: "side", Count: 2}, {Reason: "halt", Count: 1}}},
			{EntryPC: 0x402000, EndPC: 0x402010, Symbol: "leaf", Steps: 4, Checks: 0,
				Entries: 9},
		},
		Profile: "main;loop 900\nmain;leaf 100\n",
		Flight:  flight.Dump(),
	}
	return st
}

// TestEndpointsMatchGolden byte-compares every introspection endpoint
// against its golden file (regenerate with `go test ./internal/obs
// -run Golden -update`), pinning the wire format the smoke target and
// external scrapers rely on.
func TestEndpointsMatchGolden(t *testing.T) {
	srv := NewServer()
	srv.Publish(testState(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	endpoints := []struct {
		path, golden, ctype string
	}{
		{"/metrics", "metrics.golden", "text/plain; version=0.0.4; charset=utf-8"},
		{"/snapshot", "snapshot.golden", "application/json"},
		{"/traces", "traces.golden", "application/json"},
		{"/profile", "profile.golden", "text/plain; charset=utf-8"},
		{"/flight", "flight.golden", "application/json"},
	}
	for _, ep := range endpoints {
		t.Run(ep.path, func(t *testing.T) {
			body, ctype := get(t, ts.URL+ep.path)
			if ctype != ep.ctype {
				t.Errorf("Content-Type %q, want %q", ctype, ep.ctype)
			}
			path := filepath.Join("testdata", ep.golden)
			if *update {
				if err := os.WriteFile(path, body, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(body, want) {
				t.Errorf("%s diverged from %s:\n got: %s\nwant: %s", ep.path, path, body, want)
			}
		})
	}
}

func TestEndpointsAreValidAndStripped(t *testing.T) {
	srv := NewServer()
	srv.Publish(testState(t))
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	metrics, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(string(metrics), "# TYPE redfat_vm_retired_total counter") {
		t.Errorf("/metrics is not Prometheus exposition:\n%s", metrics)
	}
	if strings.Contains(string(metrics), "compile_ns") {
		t.Errorf("/metrics leaks host wall-clock series:\n%s", metrics)
	}
	var snap telemetry.Snapshot
	body, _ := get(t, ts.URL+"/snapshot")
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/snapshot is not a telemetry snapshot: %v", err)
	}
	if err := snap.Validate(); err != nil {
		t.Errorf("/snapshot validation: %v", err)
	}
	if snap.Counters["vm.retired.total"] != 1234 {
		t.Errorf("snapshot counter = %d, want 1234", snap.Counters["vm.retired.total"])
	}
	var table TraceTable
	body, _ = get(t, ts.URL+"/traces")
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatalf("/traces is not a trace table: %v", err)
	}
	if table.SchemaVersion != SchemaVersion || len(table.Traces) != 2 {
		t.Errorf("trace table = %+v", table)
	}
	var dump FlightDump
	body, _ = get(t, ts.URL+"/flight")
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/flight is not a flight dump: %v", err)
	}
	if dump.Total != 4 || dump.Events[3].Reason != "halt" {
		t.Errorf("flight dump = %+v", dump)
	}
	index, _ := get(t, ts.URL+"/")
	for _, ep := range []string{"/metrics", "/snapshot", "/traces", "/profile", "/flight"} {
		if !strings.Contains(string(index), ep) {
			t.Errorf("index does not list %s", ep)
		}
	}
	resp, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown path: status %d, want 404", resp.StatusCode)
	}
}

// TestServerBeforePublishServesEmpty pins the pre-run state: every
// endpoint must answer (the server comes up before the guest runs), just
// with empty documents.
func TestServerBeforePublishServesEmpty(t *testing.T) {
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var table TraceTable
	body, _ := get(t, ts.URL+"/traces")
	if err := json.Unmarshal(body, &table); err != nil {
		t.Fatalf("/traces: %v", err)
	}
	if table.Traces == nil || len(table.Traces) != 0 {
		t.Errorf("pre-publish traces = %#v, want empty non-nil", table.Traces)
	}
	var dump FlightDump
	body, _ = get(t, ts.URL+"/flight")
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatalf("/flight: %v", err)
	}
	if dump.Total != 0 {
		t.Errorf("nil-flight dump total = %d, want 0", dump.Total)
	}
	if body, _ := get(t, ts.URL+"/profile"); len(body) != 0 {
		t.Errorf("pre-publish profile = %q, want empty", body)
	}
	srv.Publish(nil) // must not clobber the state
	if body, _ := get(t, ts.URL+"/snapshot"); !json.Valid(body) {
		t.Errorf("/snapshot after Publish(nil) is not JSON: %s", body)
	}
}

// TestFlightScrapeDuringRecordIsRaceFree pins the concurrency contract:
// /flight serves only the published dump, never the live ring, so
// scraping while the VM goroutine is still recording is well-defined
// (the race detector fails this test if a handler ever reads the ring).
func TestFlightScrapeDuringRecordIsRaceFree(t *testing.T) {
	flight := NewFlight(64)
	var cyc uint64
	flight.BindCycles(&cyc)
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := uint64(0); i < 5000; i++ {
			cyc = i
			flight.Record(EvBlockEntry, 0, 0x1000+i, i)
		}
	}()
	for i := 0; i < 20; i++ {
		var dump FlightDump
		body, _ := get(t, ts.URL+"/flight")
		if err := json.Unmarshal(body, &dump); err != nil {
			t.Fatalf("/flight mid-run: %v", err)
		}
		if dump.Total != 0 {
			t.Fatalf("mid-run /flight served the live ring (total %d), want the published empty window", dump.Total)
		}
	}
	<-done

	// After the recording goroutine is done, the owner dumps and
	// publishes; the endpoint now serves the full window.
	srv.Publish(&State{Flight: flight.Dump()})
	var dump FlightDump
	body, _ := get(t, ts.URL+"/flight")
	if err := json.Unmarshal(body, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Total != 5000 || len(dump.Events) != 64 {
		t.Errorf("published dump total %d / %d events, want 5000 / 64", dump.Total, len(dump.Events))
	}
}

func get(t *testing.T, url string) ([]byte, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, resp.Header.Get("Content-Type")
}
