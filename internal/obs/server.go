package obs

import (
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"sync"

	"redfat/internal/telemetry"
)

// DeoptCount is one reason bucket of a trace's deopt histogram. Only
// nonzero reasons are rendered, in enum order, so the table is compact
// and byte-deterministic.
type DeoptCount struct {
	Reason string `json:"reason"`
	Count  uint64 `json:"count"`
}

// TraceRow is one compiled superblock in the /traces table: the guest PC
// range it covers, its shape (steps, fused checks),
// and its runtime history (entries, per-reason deopts). Symbol names the
// entry PC when a symbolizer was available.
type TraceRow struct {
	EntryPC uint64       `json:"entry_pc"`
	EndPC   uint64       `json:"end_pc"`
	Symbol  string       `json:"symbol,omitempty"`
	Steps   int          `json:"steps"`
	Checks  int          `json:"checks"`
	Entries uint64       `json:"entries"`
	Deopts  []DeoptCount `json:"deopts,omitempty"`
}

// TraceTable is the /traces response document.
type TraceTable struct {
	SchemaVersion int        `json:"schema_version"`
	Traces        []TraceRow `json:"traces"`
}

// State is one published introspection snapshot: plain data assembled by
// the layer that owns the VM (cmd/rfvm, cmd/rfbench, the root API), so
// this package needs no knowledge of VMs, symbolizers or profilers.
type State struct {
	Telemetry *telemetry.Snapshot // served by /metrics and /snapshot
	Traces    []TraceRow          // served by /traces
	Profile   string              // folded stacks, served by /profile
	Flight    *FlightDump         // served by /flight
}

// Server is the live introspection endpoint. Publish replaces the
// current State atomically (publish immutable snapshots — handlers read
// them concurrently without copying). The server never touches a live
// Flight ring: a Flight is single-goroutine like the VM it observes, so
// the owner dumps it (on the VM goroutine, or after Run) and publishes
// the dump in State.Flight; until then /flight serves the empty window.
type Server struct {
	mu    sync.RWMutex
	state *State
}

// NewServer returns a server holding an empty pre-run snapshot, so every
// endpoint answers (with empty documents) before the first Publish.
func NewServer() *Server {
	return &Server{state: &State{
		Telemetry: (*telemetry.Registry)(nil).Snapshot(),
		Flight:    (*Flight)(nil).Dump(),
	}}
}

// Publish installs a new snapshot for the read endpoints. The caller
// must not mutate st afterwards.
func (s *Server) Publish(st *State) {
	if st == nil {
		return
	}
	if st.Telemetry == nil {
		st.Telemetry = (*telemetry.Registry)(nil).Snapshot()
	}
	if st.Flight == nil {
		st.Flight = (*Flight)(nil).Dump()
	}
	s.mu.Lock()
	s.state = st
	s.mu.Unlock()
}

// current returns the published snapshot.
func (s *Server) current() *State {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.state
}

// Handler returns the introspection mux:
//
//	/metrics  — Prometheus text exposition of the published telemetry
//	/snapshot — the published telemetry snapshot as stable JSON
//	/traces   — the JIT trace table (TraceTable JSON)
//	/profile  — the guest profile as folded stacks (text)
//	/flight   — the published flight-recorder window (FlightDump JSON)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "redfat introspection\n\n/metrics\n/snapshot\n/traces\n/profile\n/flight\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.current().Telemetry.WritePrometheus(w)
	})
	mux.HandleFunc("/snapshot", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, s.current().Telemetry)
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		st := s.current()
		table := &TraceTable{SchemaVersion: SchemaVersion, Traces: st.Traces}
		if table.Traces == nil {
			table.Traces = []TraceRow{}
		}
		writeJSON(w, table)
	})
	mux.HandleFunc("/profile", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, s.current().Profile)
	})
	mux.HandleFunc("/flight", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		s.current().Flight.WriteJSON(w)
	})
	return mux
}

// writeJSON writes v as the same indented-JSON-plus-newline byte shape
// the runpack members use, so endpoint output is golden-testable.
func writeJSON(w http.ResponseWriter, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(data, '\n'))
}

// Serve answers introspection requests on l until the listener closes.
// Callers typically run it on its own goroutine for the life of the
// process (rfvm -listen, rfbench -listen).
func Serve(l net.Listener, s *Server) error {
	return http.Serve(l, s.Handler())
}
