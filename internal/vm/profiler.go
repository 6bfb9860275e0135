package vm

// The guest sampling profiler: a cycle-budget-driven PC sampler hooked
// into the shared dispatch body (exec), so the block-cache and legacy
// paths sample identically. Every Interval guest cycles the profiler
// records the current PC plus a bounded backtrace and attributes to that
// stack all cycles elapsed since the previous sample — the standard
// sampling-profiler accounting, but driven by the deterministic guest
// cycle counter instead of wall-clock, so profiles are reproducible.
//
// Sampling is host-side only. The dispatch loop pays one nil-check per
// retired instruction when no profiler is attached, and the sampler never
// writes guest state or charges guest cycles, so cycle counts, errors and
// output are bit-identical with profiling on or off.

import (
	"encoding/binary"
	"sort"
)

// Default sampler parameters.
const (
	DefaultSampleInterval = 4096 // guest cycles between samples
	DefaultSampleDepth    = 16   // frames per sample, leaf included
	timelineCap           = 4096 // retained raw samples for timeline export
)

// ProfSample is one aggregated call-stack bucket: a unique guest stack
// (leaf PC first) with the cycles and sample hits attributed to it.
type ProfSample struct {
	Stack  []uint64 // leaf PC first, outermost caller last
	Cycles uint64   // guest cycles attributed to this stack
	Count  uint64   // number of samples that hit it
}

// TimeSample is one raw (non-aggregated) sample on the guest timeline,
// retained in a bounded ring for trace export.
type TimeSample struct {
	Cycles uint64 // guest cycle counter when the sample fired
	Weight uint64 // cycles attributed to this sample
	PC     uint64 // leaf PC
}

// GuestProfiler samples guest execution by cycle budget. Attach one via
// VM.Profiler before Run; read results with Samples/HotPCs after.
type GuestProfiler struct {
	// Interval is the cycle budget between samples
	// (0 = DefaultSampleInterval). A sample captures at most
	// DefaultSampleDepth frames.
	Interval uint64

	next    uint64 // cycle counter threshold for the next sample
	last    uint64 // cycle counter at the previous sample
	total   uint64 // cycles attributed across all samples
	count   uint64 // samples taken
	buckets map[string]*ProfSample

	timeline []TimeSample // the newest timelineCap raw samples
	timePos  int          // oldest sample once the ring is full, else 0
}

func (p *GuestProfiler) interval() uint64 {
	if p.Interval == 0 {
		return DefaultSampleInterval
	}
	return p.Interval
}

// maybeSample fires when the guest cycle counter has crossed the next
// sampling threshold. Called from exec before the instruction at pc
// retires; hot path cost when attached is one comparison.
func (p *GuestProfiler) maybeSample(v *VM, pc uint64) {
	if p.buckets == nil {
		p.buckets = make(map[string]*ProfSample)
		p.next = p.interval()
		return
	}
	if v.Cycles < p.next {
		return
	}
	weight := v.Cycles - p.last
	p.last = v.Cycles
	p.next = v.Cycles + p.interval()
	p.total += weight
	p.count++

	stack := make([]uint64, 0, DefaultSampleDepth)
	stack = append(stack, pc)
	stack = append(stack, v.Backtrace(DefaultSampleDepth-1)...)

	key := stackKey(stack)
	b := p.buckets[key]
	if b == nil {
		b = &ProfSample{Stack: stack}
		p.buckets[key] = b
	}
	b.Cycles += weight
	b.Count++

	ts := TimeSample{Cycles: v.Cycles, Weight: weight, PC: pc}
	if len(p.timeline) < timelineCap {
		p.timeline = append(p.timeline, ts)
	} else {
		p.timeline[p.timePos] = ts
		p.timePos = (p.timePos + 1) % timelineCap
	}
}

// stackKey encodes a stack as a map key without allocation surprises.
func stackKey(stack []uint64) string {
	buf := make([]byte, 8*len(stack))
	for i, pc := range stack {
		binary.LittleEndian.PutUint64(buf[8*i:], pc)
	}
	return string(buf)
}

// Samples returns the aggregated stack buckets, hottest first (ties
// broken by stack content for determinism).
func (p *GuestProfiler) Samples() []ProfSample {
	if p == nil {
		return nil
	}
	out := make([]ProfSample, 0, len(p.buckets))
	for _, b := range p.buckets {
		out = append(out, *b)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return stackLess(out[i].Stack, out[j].Stack)
	})
	return out
}

func stackLess(a, b []uint64) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// HotPCs aggregates sampled cycles by leaf PC, hottest first.
func (p *GuestProfiler) HotPCs() []ProfSample {
	if p == nil {
		return nil
	}
	flat := make(map[uint64]*ProfSample)
	for _, b := range p.buckets {
		pc := b.Stack[0]
		f := flat[pc]
		if f == nil {
			f = &ProfSample{Stack: []uint64{pc}}
			flat[pc] = f
		}
		f.Cycles += b.Cycles
		f.Count += b.Count
	}
	out := make([]ProfSample, 0, len(flat))
	for _, f := range flat {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cycles != out[j].Cycles {
			return out[i].Cycles > out[j].Cycles
		}
		return out[i].Stack[0] < out[j].Stack[0]
	})
	return out
}

// Timeline returns the retained raw samples (the newest timelineCap) in
// guest-cycle order.
func (p *GuestProfiler) Timeline() []TimeSample {
	if p == nil {
		return nil
	}
	out := append([]TimeSample(nil), p.timeline[p.timePos:]...)
	return append(out, p.timeline[:p.timePos]...)
}

// TotalCycles returns the guest cycles attributed across all samples.
func (p *GuestProfiler) TotalCycles() uint64 {
	if p == nil {
		return 0
	}
	return p.total
}

// SampleCount returns the number of samples taken.
func (p *GuestProfiler) SampleCount() uint64 {
	if p == nil {
		return 0
	}
	return p.count
}
