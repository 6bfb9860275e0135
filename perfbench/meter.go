package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"
	"unsafe"

	"redfat/internal/relf"
	"redfat/internal/telemetry"
)

// layer is a step the benchmark times: a call into one module of the
// program, a unit, or a set-up.
type layer uint8

const (
	lSetup layer = iota
	lUnit
	lAsm
	lProfile
	lHarden
	lMarshal
	lVerify
	lBase
	lHard
	lMemcheck
	lDecode
	lGraph
	lDataflow
	lRunSetup
	numLayers
)

var layerNames = [numLayers]string{"setup", "unit", "asm.build", "profile",
	"redfat.harden", "relf.marshal", "verify", "vm.base", "vm.hard", "memcheck",
	"cfg.decode", "cfg.graph", "cfg.dataflow", "rtlib.setup"}

// pass accumulates what one pass over a workload's units (or one set-up)
// measured and produced. Only the first pass keeps per-unit results; a
// later pass keeps totals, so the benchmark's own heap does not grow
// with the number of passes it has run.
type pass struct {
	traced bool

	// Host time, call count and (traced only) Go heap bytes allocated per
	// layer, summed over the layer's calls in this pass.
	ns    [numLayers]int64
	calls [numLayers]int
	alloc [numLayers]uint64

	wallNS    int64  // sum of the unit latencies
	allocB    uint64 // Go heap bytes allocated by the pass
	gcCount   uint32
	gcPauseNS uint64

	attempted, failed int

	// Deterministic guest-side results.
	ratios               []float64 // hardened/baseline guest cycles
	overheadX            float64   // their geometric mean, once the pass ends
	origBytes, hardBytes int       // marshalled RELF bytes
	tally                map[string]int

	// Per-unit guest identity: the first pass records it in sig, later
	// passes count the units that differ from it.
	ref        map[string]string
	sig        map[string]string
	mismatches int

	// Traced passes only: telemetry registries attached to the hardened
	// and the baseline runs, layer counts read off the program's own
	// results, and the binaries the probe phase re-analyses.
	hardReg, baseReg *telemetry.Registry
	counts           map[string]float64
	probes           []probe
}

// probe is one hardened binary whose layers the traced pass re-measures
// in isolation after its units (see runProbes).
type probe struct {
	orig, hard *relf.Binary
	input      []uint64
}

// newPass starts a pass whose guest results must match ref (nil for the
// first pass, which records them).
func newPass(traced bool, ref map[string]string) *pass {
	p := &pass{traced: traced, ref: ref, tally: map[string]int{}}
	if ref == nil {
		p.sig = map[string]string{}
	}
	if traced {
		p.hardReg = telemetry.New()
		p.baseReg = telemetry.New()
		p.counts = map[string]float64{}
	}
	return p
}

// identity records one unit's guest-side results.
func (p *pass) identity(key, sig string) {
	if p.ref == nil {
		p.sig[key] = sig
	} else if p.ref[key] != sig {
		p.mismatches++
	}
}

// end closes a pass: the guest overhead is folded into its mean.
func (p *pass) end() {
	p.overheadX = geomean(p.ratios)
	p.ratios = nil
}

func (p *pass) count(name string, v float64) {
	if p.traced {
		p.counts[name] += v
	}
}

func (p *pass) fail(key, format string, args ...any) {
	p.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", key, fmt.Sprintf(format, args...))
}

// sampled are the layers whose per-unit times the end-to-end metrics
// use; the unit's own latency comes first.
var sampled = [...]layer{lUnit, lHarden, lVerify, lHard}

// sample is one unit run in an untraced pass: the unit's index in its
// workload and its host time in each sampled layer, in ns.
type sample struct {
	unit int32
	ns   [len(sampled)]float32
}

// Capacities of the benchmark's logs: far more than a minute of the
// smallest units fills.
const (
	maxSamples = 1 << 21
	maxSpans   = 1 << 22
)

// offHeap maps an empty slice of capacity n outside the Go heap; T must
// hold no pointers. Its pages are touched only as elements arrive, and
// the garbage collector never sees them: the benchmark's bookkeeping
// neither grows the heap nor moves the collections of the program it
// measures, whose cost on the detect workload is mostly collection.
func offHeap[T any](n int) ([]T, error) {
	var zero T
	b, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)), syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("mapping a log: %w", err)
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), n)[:0], nil
}

// span is one timed call into a layer, recorded in traced passes only.
type span struct {
	layer  layer
	unit   int32 // the unit run it belongs to, -1 outside units
	parent int32 // index of the enclosing span, -1 at the root
	start  int64 // ns since the run began
	end    int64
	alloc  uint64 // Go heap bytes allocated during the call
}

// meter times every call the benchmark makes into a layer of the
// program. In a traced pass each call also becomes a span, with the Go
// heap bytes it allocated read from runtime.MemStats around it. Spans
// stay in memory, off the Go heap, until the run ends.
type meter struct {
	origin time.Time
	pass   *pass
	log    []sample // untraced unit runs, off-heap

	inUnit bool
	cur    [numLayers]int64 // the running unit's time per layer

	// Traced passes only.
	spans []span   // off-heap
	runs  []int32  // unit run → unit index, off-heap
	names []string // unit index → key
	open  []int32
	run   int32 // the running unit run, -1 outside units
}

func newMeter() (*meter, error) {
	m := &meter{origin: time.Now(), run: -1}
	var err error
	if m.log, err = offHeap[sample](maxSamples); err != nil {
		return nil, err
	}
	if m.spans, err = offHeap[span](maxSpans); err != nil {
		return nil, err
	}
	if m.runs, err = offHeap[int32](maxSpans); err != nil {
		return nil, err
	}
	return m, nil
}

// call runs fn as one call into layer l and returns its host time.
func (m *meter) call(l layer, fn func()) time.Duration {
	p := m.pass
	var ms0 runtime.MemStats
	id := int32(-1)
	if p.traced {
		runtime.ReadMemStats(&ms0)
	}
	start := time.Now()
	if p.traced && len(m.spans) < cap(m.spans) {
		id = m.push(l, start)
	}
	fn()
	end := time.Now()
	d := end.Sub(start)
	p.ns[l] += int64(d)
	p.calls[l]++
	if m.inUnit {
		m.cur[l] += int64(d)
	}
	if p.traced {
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		a := ms1.TotalAlloc - ms0.TotalAlloc
		p.alloc[l] += a
		if id >= 0 {
			m.pop(id, end, a)
		}
	}
	return d
}

func (m *meter) push(l layer, t time.Time) int32 {
	parent := int32(-1)
	if n := len(m.open); n > 0 {
		parent = m.open[n-1]
	}
	m.spans = append(m.spans, span{layer: l, unit: m.run, parent: parent,
		start: int64(t.Sub(m.origin))})
	id := int32(len(m.spans) - 1)
	m.open = append(m.open, id)
	return id
}

func (m *meter) pop(id int32, t time.Time, alloc uint64) {
	m.spans[id].end = int64(t.Sub(m.origin))
	m.spans[id].alloc = alloc
	m.open = m.open[:len(m.open)-1]
}

// runUnit runs one unit as a "unit" span and books its latency and
// outcome. It reports whether the unit's self times close (traced
// passes; always true otherwise).
func (m *meter) runUnit(u unit) bool {
	p := m.pass
	m.inUnit, m.cur = true, [numLayers]int64{}
	if p.traced && len(m.runs) < cap(m.runs) {
		m.run = int32(len(m.runs))
		m.runs = append(m.runs, int32(u.id))
		for len(m.names) <= u.id {
			m.names = append(m.names, "")
		}
		m.names[u.id] = u.key
	}
	first := len(m.spans)
	var err error
	d := m.call(lUnit, func() { err = u.run(m, p) })
	m.inUnit, m.run = false, -1
	p.attempted++
	if err != nil {
		p.fail(u.key, "%v", err)
	}
	p.wallNS += int64(d)
	if p.traced {
		return len(m.spans) < cap(m.spans) && selfTimesClose(m.spans[first:], first)
	}
	if len(m.log) < cap(m.log) {
		s := sample{unit: int32(u.id)}
		for i, l := range sampled {
			s.ns[i] = float32(m.cur[l])
		}
		m.log = append(m.log, s)
	}
	return true
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by its direct children. base is the index of spans[0].
func selfTimes(spans []span, base int) []int64 {
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.end - s.start
	}
	for _, s := range spans {
		if j := int(s.parent) - base; j >= 0 && j < len(spans) {
			self[j] -= s.end - s.start
		}
	}
	return self
}

// selfTimesClose checks one unit's span tree (spans[0] is the unit):
// every child lies inside its parent and after its previous sibling, so
// the self times of the tree add up exactly to the unit's duration.
func selfTimesClose(spans []span, base int) bool {
	lastEnd := map[int32]int64{}
	for _, s := range spans[1:] {
		par := spans[int(s.parent)-base]
		if s.start < par.start || s.end > par.end || s.start < lastEnd[s.parent] {
			return false
		}
		lastEnd[s.parent] = s.end
	}
	var sum int64
	for _, v := range selfTimes(spans, base) {
		sum += v
	}
	return sum == spans[0].end-spans[0].start
}

// writeSpans writes the recorded spans as a Chrome trace (loadable in
// chrome://tracing or Perfetto) and returns the file's path.
func (m *meter) writeSpans(dir, name string) (string, error) {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(m.spans))
	for i, s := range m.spans {
		args := map[string]any{"span": i, "parent": s.parent, "alloc_bytes": s.alloc}
		if s.unit >= 0 {
			args["unit"] = s.unit
			args["unit_key"] = m.names[m.runs[s.unit]]
		}
		evs = append(evs, event{Name: layerNames[s.layer], Ph: "X", TS: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: 1, Args: args})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	data, err := json.Marshal(map[string]any{"traceEvents": evs})
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
