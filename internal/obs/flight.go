// Package obs is the live-observability layer: the flight recorder (a
// bounded ring of recent VM events, the system's one event recorder,
// which allocates only as it first fills) and an HTTP introspection
// server that exposes telemetry, the JIT trace table, the guest profile
// and the flight ring over five endpoints.
//
// The ring records at one of two grains. Default grain records no
// per-instruction events, but every trace side exit records two (deopt,
// then trace-enter): about 3% of VM time on perfbench spec-ref, and the
// recorder is always on. Execution grain adds per-instruction and
// per-call events and pins the VM to the interpreter, like any
// per-instruction observer.
//
// The package is a leaf — it depends only on the standard library and
// internal/telemetry — so the VM, guest-memory and runtime layers can
// record into a Flight without import cycles. Everything recorded is
// keyed to guest cycles, never host time, so the ring's content is a
// pure function of the binary, input, knobs and grain: attaching a
// recorder perturbs neither guest cycle accounting nor detections (the
// same bit-identity contract telemetry and forensics already uphold),
// and two runs of the same work dump byte-identical rings.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// SchemaVersion versions the flight-dump and trace-table JSON shapes.
const SchemaVersion = 1

// EventKind classifies one flight-recorder event.
type EventKind uint8

// Flight event kinds. Reason, Arg and Size are kind-specific (documented
// per kind; Size is used by EvAlloc alone); PC is the guest PC the event
// is attributed to, 0 when none applies. The kinds up to EvBudgetPoll
// are recorded at both grains, the rest at execution grain only.
const (
	EvBlockEntry EventKind = iota // a basic block was looked up uncached (Arg: build=1, cache hit=0)
	EvTraceEnter                  // dispatch entered a compiled trace (PC: trace entry)
	EvJITCompile                  // a trace was compiled (PC: entry, Arg: steps)
	EvDeopt                       // a trace deopted to the interpreter (Reason: vm.DeoptReason, PC: resume RIP, Arg: trace entry)
	EvTLBFlush                    // guest-memory TLB invalidation (PC: first affected address, Arg: pages)
	EvICacheGen                   // icache generation bump: blocks, chains and traces dropped
	EvCheckFail                   // a memory error was reported, or a profile-mode check failed (Reason: vm.MemErrorKind, PC: fault site, Arg: fault address)
	EvBudgetPoll                  // the cycle budget expired (PC: abort RIP, Arg: cycles at abort)
	EvInst                        // an instruction retired (Reason: isa.Op, PC: its address; dumped as its disassembly)
	EvTrampEnter                  // a TRAP patch dispatched to its trampoline (PC: the trap, Arg: trampoline)
	EvRTCall                      // a host runtime call returned (PC: the RTCALL, Arg: cycles the handler charged)
	EvCheckPass                   // an instrumented check passed (PC: check site, Arg: accessed lower bound)
	EvAlloc                       // heap allocation (PC: return address of the call, Arg: object, Size: requested bytes)
	EvFree                        // heap free (PC: return address of the call, Arg: object)
	numEventKinds
)

// String names the event kind as the dump renders it.
func (k EventKind) String() string {
	switch k {
	case EvBlockEntry:
		return "block-entry"
	case EvTraceEnter:
		return "trace-enter"
	case EvJITCompile:
		return "jit-compile"
	case EvDeopt:
		return "deopt"
	case EvTLBFlush:
		return "tlb-flush"
	case EvICacheGen:
		return "icache-gen"
	case EvCheckFail:
		return "check-fail"
	case EvBudgetPoll:
		return "budget-abort"
	case EvInst:
		return "inst"
	case EvTrampEnter:
		return "tramp-enter"
	case EvRTCall:
		return "rtcall"
	case EvCheckPass:
		return "check-pass"
	case EvAlloc:
		return "alloc"
	case EvFree:
		return "free"
	}
	return "event?"
}

// Event is one recorded occurrence. Cycles is the guest cycle counter at
// record time (0 before the VM binds it), so ordering and spacing are
// meaningful in guest time, not wall time. The sequence number is not
// stored: it follows from the ring position (see Dump), which keeps an
// event at 40 bytes with two payload words.
type Event struct {
	Cycles uint64
	Kind   EventKind
	Reason uint8
	PC     uint64
	Arg    uint64
	Size   uint64
}

// DefaultFlightCapacity sizes the ring when the caller passes none. 1024
// events (40 KiB once full) comfortably covers the window between
// "something went wrong" and the dump.
const DefaultFlightCapacity = 1024

// firstRing is the ring's first allocation, in events (1,280 B): enough
// for the few dozen events a short run records at default grain.
const firstRing = 32

// noCycles stamps events recorded before the VM binds its counter. It is
// never written, so an unbound recorder stamps cycle 0 without a nil test.
var noCycles uint64

// Flight is the flight recorder: a bounded ring that overwrites
// oldest-first. The ring is allocated on the first record, at firstRing
// events, and grows once to its full capacity when those fill, so a run
// pays for the events it records; from then on recording is
// allocation-free. Recording is safe on a nil receiver, so the VM hot
// paths can call it unconditionally. A Flight is single-goroutine like
// the VM it observes; dump under the same discipline (after Run, or from
// the VM goroutine).
type Flight struct {
	// Execution selects execution grain: the ring also takes the
	// execution-grain kinds (EvInst onward), and a VM running with it
	// stays in the interpreter. The VM reads it once, at Run.
	Execution bool

	ring     []Event // grows to capacity before it ever wraps
	capacity int
	next     int    // ring index of the next write
	seq      uint64 // events ever recorded
	cycles   *uint64
	labeler  func(kind EventKind, reason uint8, pc uint64) string
}

// NewFlight returns a recorder with the given ring capacity (≤ 0 selects
// DefaultFlightCapacity). The ring itself is allocated on first record.
func NewFlight(capacity int) *Flight {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &Flight{capacity: capacity, cycles: &noCycles}
}

// BindCycles points the recorder at the guest cycle counter so every
// subsequent event is stamped in guest time. The VM binds its own
// counter at Run; events recorded earlier (load-time TLB shootdowns)
// carry cycle 0, as do events after BindCycles(nil).
func (f *Flight) BindCycles(c *uint64) {
	if f == nil {
		return
	}
	if c == nil {
		c = &noCycles
	}
	f.cycles = c
}

// SetLabeler installs the reason-name resolver used when dumping (the VM
// installs one that names deopt reasons and memory-error kinds, and
// retires by the disassembly at their PC; obs cannot import those enums
// or the decoder itself).
func (f *Flight) SetLabeler(fn func(kind EventKind, reason uint8, pc uint64) string) {
	if f != nil {
		f.labeler = fn
	}
}

// Record appends one event at either grain, overwriting the oldest when
// the ring is full. Nil-safe; once the ring has reached its capacity, one
// compare, one store and two increments. Record stays within the
// compiler's inlining budget (`make inline-check`), so the VM pays no
// call for it.
func (f *Flight) Record(kind EventKind, reason uint8, pc, arg uint64) {
	if f == nil {
		return
	}
	if f.next == len(f.ring) {
		f.advance()
	}
	f.ring[f.next] = Event{Cycles: *f.cycles, Kind: kind, Reason: reason, PC: pc, Arg: arg}
	f.next++
	f.seq++
}

// RecordExec appends one execution-grain event; at default grain it
// records nothing, so callers may call it unconditionally. Only the grain
// test is inlined: the write is out of line, which keeps RecordExec
// within the inlining budget.
func (f *Flight) RecordExec(kind EventKind, reason uint8, pc, arg, size uint64) {
	if f != nil && f.Execution {
		f.recordExec(kind, reason, pc, arg, size)
	}
}

//go:noinline
func (f *Flight) recordExec(kind EventKind, reason uint8, pc, arg, size uint64) {
	f.Record(kind, reason, pc, arg)
	f.ring[f.next-1].Size = size
}

// advance makes room for the next write once the write index has reached
// the end of the ring: it wraps to the oldest event when the ring is at
// capacity, else allocates it (firstRing events) or grows it to capacity
// in place (the ring never wraps before it is full, so the events keep
// their indexes).
func (f *Flight) advance() {
	switch len(f.ring) {
	case f.capacity:
		f.next = 0
	case 0:
		f.ring = make([]Event, min(f.capacity, firstRing))
	default:
		ring := make([]Event, f.capacity)
		copy(ring, f.ring)
		f.ring = ring
	}
}

// Capacity reports the ring size: the most events it retains.
func (f *Flight) Capacity() int {
	if f == nil {
		return 0
	}
	return f.capacity
}

// Total reports how many events were ever recorded (≥ the ring's
// retained window).
func (f *Flight) Total() uint64 {
	if f == nil {
		return 0
	}
	return f.seq
}

// Events copies the retained window, oldest first.
func (f *Flight) Events() []Event {
	if f == nil || f.seq == 0 {
		return nil
	}
	if f.seq <= uint64(len(f.ring)) {
		return append([]Event(nil), f.ring[:f.seq]...)
	}
	out := make([]Event, 0, len(f.ring))
	out = append(out, f.ring[f.next:]...)
	return append(out, f.ring[:f.next]...)
}

// FlightEvent is the exported form of one event: the kind and reason are
// rendered as names so dumps read without the enum tables.
type FlightEvent struct {
	Seq    uint64 `json:"seq"`
	Cycles uint64 `json:"cycles"`
	Kind   string `json:"kind"`
	Reason string `json:"reason,omitempty"`
	PC     uint64 `json:"pc,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
	Size   uint64 `json:"size,omitempty"`
}

// FlightDump is the stable JSON projection of the ring: schema-versioned
// and byte-deterministic (slices in ring order, struct key order), so it
// can join a runpack's digest chain.
type FlightDump struct {
	SchemaVersion int           `json:"schema_version"`
	Capacity      int           `json:"capacity"`
	Total         uint64        `json:"total"`
	Events        []FlightEvent `json:"events"`
}

// Dump snapshots the ring into its exportable form. Nil-safe: a nil
// recorder dumps an empty window.
func (f *Flight) Dump() *FlightDump {
	d := &FlightDump{SchemaVersion: SchemaVersion, Capacity: f.Capacity(),
		Total: f.Total(), Events: []FlightEvent{}}
	evs := f.Events()
	first := f.Total() - uint64(len(evs))
	for i, e := range evs {
		fe := FlightEvent{
			Seq:    first + uint64(i),
			Cycles: e.Cycles,
			Kind:   e.Kind.String(),
			PC:     e.PC,
			Arg:    e.Arg,
			Size:   e.Size,
		}
		if f.labeler != nil {
			fe.Reason = f.labeler(e.Kind, e.Reason, e.PC)
		}
		d.Events = append(d.Events, fe)
	}
	return d
}

// WriteJSON writes the dump as indented JSON with a trailing newline —
// the exact bytes runpacks seal as flight.json and /flight serves.
func (d *FlightDump) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteText renders the window as one line per event for terminal dumps
// (the rfvm crash dump and -events): sequence, guest cycle, kind,
// reason, PC, arg, and size when nonzero.
func (d *FlightDump) WriteText(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "flight recorder: %d events recorded, last %d retained\n",
		d.Total, len(d.Events)); err != nil {
		return err
	}
	for i := range d.Events {
		e := &d.Events[i]
		reason := e.Reason
		if reason != "" {
			reason = " " + reason
		}
		size := ""
		if e.Size != 0 {
			size = fmt.Sprintf(" size=%d", e.Size)
		}
		if _, err := fmt.Fprintf(w, "  #%-6d cyc=%-12d %-12s%s pc=%#x arg=%#x%s\n",
			e.Seq, e.Cycles, e.Kind, reason, e.PC, e.Arg, size); err != nil {
			return err
		}
	}
	return nil
}
