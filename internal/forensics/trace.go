package forensics

import (
	"encoding/json"
	"io"

	"redfat/internal/obs"
	"redfat/internal/vm"
)

// Chrome trace-event export: a flight-recorder dump's events plus the
// profiler's raw sample timeline, serialized in the trace-event JSON
// format that chrome://tracing and Perfetto load directly. Guest cycles
// stand in for microseconds — the importers only require a monotonic
// timebase, and cycles keep the view deterministic.

// traceEvent is one record of the trace-event format. Only the fields
// the viewers use are emitted.
type traceEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Phase string         `json:"ph"`
	TS    uint64         `json:"ts"`            // guest cycles as µs
	Dur   uint64         `json:"dur,omitempty"` // for "X" complete events
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"` // instant-event scope
	Args  map[string]any `json:"args,omitempty"`
}

// traceFile is the top-level trace-event container.
type traceFile struct {
	TraceEvents []traceEvent `json:"traceEvents"`
	Meta        string       `json:"otherData,omitempty"`
}

// Trace-event virtual thread ids: flight events on one row, profiler
// samples on another, so the viewer separates them.
const (
	traceTIDEvents  = 1
	traceTIDSamples = 2
)

// WriteChromeTrace serializes a flight dump's retained events and the
// profiler's sample timeline (either may be nil) as trace-event JSON.
func WriteChromeTrace(w io.Writer, d *obs.FlightDump, p *vm.GuestProfiler, sym *Symbolizer) error {
	out := traceFile{TraceEvents: []traceEvent{}, Meta: "redfat guest trace (ts = guest cycles)"}

	var evs []obs.FlightEvent
	if d != nil {
		evs = d.Events
	}
	for _, e := range evs {
		ev := traceEvent{
			Name:  e.Kind,
			Cat:   "event",
			Phase: "i",
			TS:    e.Cycles,
			PID:   1,
			TID:   traceTIDEvents,
			Scope: "t",
			Args: map[string]any{
				"seq": e.Seq,
				"pc":  sym.Format(e.PC),
			},
		}
		if e.Reason != "" {
			ev.Args["reason"] = e.Reason
		}
		if e.Arg != 0 {
			ev.Args["arg"] = e.Arg
		}
		if e.Size != 0 {
			ev.Args["size"] = e.Size
		}
		out.TraceEvents = append(out.TraceEvents, ev)
	}

	for _, s := range p.Timeline() {
		start := s.Cycles - s.Weight
		out.TraceEvents = append(out.TraceEvents, traceEvent{
			Name:  sym.Format(s.PC),
			Cat:   "sample",
			Phase: "X",
			TS:    start,
			Dur:   s.Weight,
			PID:   1,
			TID:   traceTIDSamples,
			Args:  map[string]any{"pc": s.PC},
		})
	}

	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
