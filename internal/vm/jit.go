package vm

// The superblock translation tier (tier 1).
//
// The interpreter pays a fixed per-instruction toll: the exec dispatch
// switch, the cycle-budget poll, the Halted check, the telemetry
// branches, and a RIP/Insts/Cycles update per retired instruction. Once
// block chaining has linked a hot path into a stable straight line
// (chain hit rate on the bench workloads is ~99.9%), that toll is almost
// the entire cost. The superblock tier removes it: when a block's entry
// counter crosses JITThreshold, the chained trace rooted at that block
// is compiled into a sequence of specialized Go closures — one per
// instruction, each a residual computation with every decode-dependent
// decision (operand form, width, registers, immediates, branch targets,
// check plans) folded away at compile time.
//
// Deferred state and the single spill. Inside a trace the VM defers
// everything the interpreter updates per instruction: condition flags
// live in a context register (jctx.flags), and RIP, the retired-
// instruction count, the statically-known cycle total and the telemetry
// deltas are materialized exactly once per trace exit from precomputed
// per-exit records. The general-purpose register file deliberately stays
// architectural (v.Regs): fused check handlers read registers directly
// and error reports walk v.Regs[RSP], so spilling registers would buy
// nothing and cost a copy. Dynamically-determined cycles (the per-site
// check cost, which depends on the run-time fat/non-fat outcome) are
// charged to v.Cycles by the check routine itself, so v.Cycles is the
// interpreter's value at every materialization point.
//
// Check fusion. An RTCALL that resolves (via VM.InlineCheck) to an
// instrumented-check plan stays on-trace as a fused closure that calls
// the site's check routine directly — the same routine the RTCALL
// binding runs — with no trampoline dispatch. Every fused check runs the
// full check; removing redundant checks is the static rewriter's job.
//
// Exact semantics. The tier preserves, instruction for instruction:
// cycle accounting (including partial charges on faulting instructions),
// retired-instruction counts, telemetry counters, error report order and
// content, the cycle-budget abort point (a trace is only entered when a
// full worst-case iteration fits in the remaining budget, so aborts
// always fire in the interpreter at the exact instruction), and the halt
// protocol. Side exits (the unpredicted branch direction), dynamic exits
// (indirect control flow), faults and detections all materialize full
// state and deopt to the interpreter, which remains the always-correct
// tier 0. Condition flags are exact at every resumable exit; after a
// faulting exit the run terminates with an error and flags are not
// observable.
//
// The compiler is two-phase: analyzeTrace derives a declarative plan
// (TraceInfo — steps, costs, exits, flag-elision claims and fused check
// sites) and emitTrace generates closures from nothing but that plan.
// internal/verify re-derives every claim independently and certifies the
// plan against the single-step semantics (DESIGN.md §14).

import (
	"time"

	"redfat/internal/isa"
	"redfat/internal/obs"
)

// DefaultJITThreshold is the block entry count that triggers trace
// compilation when VM.JITThreshold is zero. High enough that cold code
// never pays compilation, low enough that the bench loops (thousands of
// iterations) spend almost all their trips in compiled code.
const DefaultJITThreshold = 64

// maxTraceInsts bounds a trace; longer chains simply end in a fall exit
// and the successor trace starts its own counter.
const maxTraceInsts = 256

// minTraceInsts is the shortest trace worth compiling: below this the
// per-entry overhead (budget guard, materialization) eats the win.
const minTraceInsts = 3

// JITCheck is the fusable plan of one instrumentation site, exported by
// the runtime layer through VM.InlineCheck.
type JITCheck struct {
	// MaxCost bounds the guest cycles one execution can charge (the
	// maximum over the site's cost table), for the budget guard.
	MaxCost uint64

	// Exec is the site's compiled check: the routine the RTCALL binding
	// runs for this site, with the site already bound.
	Exec func(v *VM) error
}

// ExitKind classifies how control leaves a compiled trace.
type ExitKind uint8

// Trace exit kinds.
const (
	ExitFall  ExitKind = iota // static successor off the trace end
	ExitLoop                  // back edge to the trace entry (stay compiled)
	ExitSide                  // unpredicted conditional-branch direction
	ExitDyn                   // dynamic target (ret / indirect jmp / indirect call)
	ExitHalt                  // HLT or RET to the exit sentinel
	ExitFault                 // error: memory fault, div fault, or aborting detection
)

// DeoptReason classifies why control left the compiled tier for the
// interpreter. Side exits and dynamic transfers are the benign steady-
// state reasons; faults and traps mean the trace hit an error or an
// aborting detection; halt means the program ended inside the trace;
// budget means the cycle-budget guard refused or curtailed an entry so
// the abort could fire at the exact instruction. ExitFall and ExitLoop
// are not deopts: control stays in (or re-enters) compiled code.
type DeoptReason uint8

// Deopt reasons, the buckets behind vm.jit.deopt.<reason>.count.
const (
	DeoptSide       DeoptReason = iota // unpredicted conditional-branch direction
	DeoptDyn                           // dynamic transfer (ret / indirect jmp / indirect call)
	DeoptHalt                          // HLT or RET to the exit sentinel inside the trace
	DeoptFault                         // memory or divide fault on a plain instruction
	DeoptTrap                          // fused check reported an aborting detection
	DeoptBudget                        // cycle-budget guard refused or curtailed the trace
	NumDeoptReasons = int(iota)
)

// String names the reason as telemetry and flight dumps render it.
func (r DeoptReason) String() string {
	switch r {
	case DeoptSide:
		return "side"
	case DeoptDyn:
		return "dyn"
	case DeoptHalt:
		return "halt"
	case DeoptFault:
		return "fault"
	case DeoptTrap:
		return "trap"
	case DeoptBudget:
		return "budget"
	}
	return "deopt?"
}

// String names the exit kind.
func (k ExitKind) String() string {
	switch k {
	case ExitFall:
		return "fall"
	case ExitLoop:
		return "loop"
	case ExitSide:
		return "side"
	case ExitDyn:
		return "dyn"
	case ExitHalt:
		return "halt"
	case ExitFault:
		return "fault"
	}
	return "exit?"
}

// TraceCheck is the declarative record of one fused check site inside a
// TraceInfo: the site identity and the cost bound, which the certifier
// matches against an independently re-resolved plan.
type TraceCheck struct {
	Arg       uint32 // instrumentation-site index (RTCALL static argument)
	ImportIdx int    // RTCALL import slot
	MaxCost   uint64 // JITCheck.MaxCost of the resolved plan
}

// TraceStep is one instruction of a compiled trace, with the claims the
// emitter compiles from and the certifier re-proves: the static on-trace
// successor, the continue-path cycle cost, and whether the flag update
// was elided as dead.
type TraceStep struct {
	PC   uint64
	Inst isa.Inst
	Next uint64 // successor pc when the trace continues past this step
	Cost uint64 // static cycles on the continue path (CostInst included)

	// FlagsElided marks an instruction whose condition-flag update was
	// proven dead within the trace (no flag it may write is observed
	// before being unconditionally overwritten, on any resumable path).
	FlagsElided bool

	Check *TraceCheck // non-nil when the step is a fused check RTCALL
}

// TraceExit is one way control can leave the trace, with the exact state
// the runner materializes: the resume RIP (or dynamic), and the retired
// instructions and statically-charged cycles accumulated on that path.
type TraceExit struct {
	Step    int // index of the step this exit leaves at
	Kind    ExitKind
	Stage   uint8 // 0: after the step's effects; 1,2: n-th memory/fault point inside it
	RIP     uint64
	Dynamic bool   // resume RIP is run-time determined (jctx.dynRIP)
	Retired uint64 // instructions retired when leaving here (always Step+1)
	Cycles  uint64 // static cycles charged when leaving here
}

// TraceInfo is the declarative compilation plan of one superblock: the
// certifiable contract between analyzeTrace (which derives it), emitTrace
// (which compiles closures from it and nothing else), and the
// internal/verify certifier (which re-derives and checks every claim).
type TraceInfo struct {
	EntryPC uint64
	MaxCost uint64 // upper bound on cycles charged by one full iteration
	Steps   []TraceStep
	Exits   []TraceExit
}

// CompiledTraces returns the plans of every superblock compiled so far,
// in compilation order (for the verify certifier and -stats reporting).
func (v *VM) CompiledTraces() []*TraceInfo {
	out := make([]*TraceInfo, len(v.traces))
	for i, t := range v.traces {
		out[i] = t.info
	}
	return out
}

// jctx is the deferred machine state threaded through a trace's step
// closures: the cached condition flags and, for dynamic exits, the
// run-time resume RIP. err carries the terminating error of a fault
// exit.
type jctx struct {
	flags  Flags
	dynRIP uint64
	err    error
}

// jstep executes one compiled instruction (or a fused CMP+Jcc pair)
// against the deferred context. It returns cont (0) to continue with the
// next closure, or the 1-based index of the taken exit.
type jstep func(j *jctx) int

// stepTel is the telemetry delta of one step (or of a partial, faulting
// step): the retired opcode plus the load/store/branch/patch counter
// increments the interpreter would have made.
type stepTel struct {
	op       isa.Op
	loads    uint8
	stores   uint8
	branches uint8
	patch    uint8
}

// telBatch is a precomputed aggregate of the per-step telemetry along
// one exit path, applied with a handful of counter adds instead of a
// per-step replay. Built only for the terminal (hot) exits.
type telBatch struct {
	loads, stores, branches, patch uint64
	ops                            []opCount
}

// opCount is one per-opcode retirement total inside a telBatch.
type opCount struct {
	op isa.Op
	n  uint64
}

// traceExit is the runner-side record of one exit: the materialization
// constants from TraceExit plus the telemetry replay data and a
// one-entry successor-block cache (the trace-level BTB).
type traceExit struct {
	kind    ExitKind
	rip     uint64
	dynamic bool
	retired uint64
	cycles  uint64
	step    int
	self    stepTel   // the exiting step's own (possibly partial) telemetry
	batch   *telBatch // aggregate for terminal exits; nil → replay per-step meta

	// deopt marks exits that leave the compiled tier; reason is the
	// attribution bucket (computed once at emit time, so the runner pays
	// one branch, not a classification).
	deopt  bool
	reason DeoptReason

	nextPC uint64 // last successor block resolved after this exit
	next   *block
}

// trace is one compiled superblock.
type trace struct {
	entryPC uint64
	maxCost uint64
	steps   []jstep    // one closure per step that does anything at run time
	last    *traceExit // the last step's continue exit: taken when every closure continues
	meta    []stepTel  // continue-path telemetry per step
	exits   []traceExit
	ctx     jctx // reused across entries (one VM, one goroutine)
	info    *TraceInfo

	// Per-trace runtime history for the /traces table and -stats:
	// guest-deterministic (counted in dispatch, not sampled), kept even
	// without a telemetry registry.
	entries uint64
	deopts  [NumDeoptReasons]uint64
}

// TraceRows reports every compiled trace as a row of the /traces table,
// in compilation order (deterministic: compilation order is a function
// of guest execution), with its nonzero deopt counts in reason-enum
// order. Symbol is left for the caller, which holds the symbolizer.
func (v *VM) TraceRows() []obs.TraceRow {
	if len(v.traces) == 0 {
		return nil
	}
	rows := make([]obs.TraceRow, len(v.traces))
	for i, t := range v.traces {
		steps := t.info.Steps
		r := obs.TraceRow{EntryPC: t.entryPC, Steps: len(steps), Entries: t.entries}
		if n := len(steps); n > 0 {
			r.EndPC = steps[n-1].PC
		}
		for j := range steps {
			if steps[j].Check != nil {
				r.Checks++
			}
		}
		for reason, n := range t.deopts {
			if n != 0 {
				r.Deopts = append(r.Deopts, obs.DeoptCount{Reason: DeoptReason(reason).String(), Count: n})
			}
		}
		rows[i] = r
	}
	return rows
}

// jitEnabled decides whether this run may use the superblock tier: the
// tier needs no per-instruction observers — mem/block hooks, an
// execution-grain flight recorder and the guest profiler all require
// interpreter-grain callbacks, so any of them pins execution to tier 0.
// Trace costs are compiled at CostInst per instruction, so a nonzero
// PerInstOverhead (set only by Memcheck, which also installs the hooks)
// pins tier 0 as well.
func (v *VM) jitEnabled() bool {
	return !v.NoJIT && !v.execEvents &&
		v.Profiler == nil && v.MemHook == nil && v.BlockHook == nil &&
		v.PerInstOverhead == 0
}

// jitThreshold resolves the configured hotness threshold.
func (v *VM) jitThreshold() uint32 {
	if v.JITThreshold != 0 {
		if v.JITThreshold > 1<<30 {
			return 1 << 30
		}
		return uint32(v.JITThreshold)
	}
	return DefaultJITThreshold
}

// jitTrace returns the compiled trace rooted at b, counting entries and
// compiling once the hotness threshold is crossed. nil while cold or
// when b cannot root a trace.
func (v *VM) jitTrace(b *block) *trace {
	if b.trace != nil {
		return b.trace
	}
	if b.noTrace {
		return nil
	}
	b.hot++
	if b.hot < v.jitThreshold() {
		return nil
	}
	v.compileTrace(b)
	if b.trace == nil {
		b.noTrace = true
	}
	return b.trace
}

// compileTrace runs the two compiler phases for the trace rooted at b
// and installs the result on the block.
func (v *VM) compileTrace(b *block) {
	var start time.Time
	if v.tel != nil {
		start = time.Now()
	}
	tb := v.analyzeTrace(b)
	if tb == nil {
		return
	}
	t := v.emitTrace(tb)
	if t == nil {
		return
	}
	b.trace = t
	v.traces = append(v.traces, t)
	v.Flight.Record(obs.EvJITCompile, 0, t.entryPC, uint64(len(t.info.Steps)))
	if v.tel != nil {
		v.tel.jitCompiles.Inc()
		v.tel.jitCompileNS.Observe(uint64(time.Since(start).Nanoseconds()))
	}
}

// noteBudgetDeopt attributes one budget-guard refusal (or loop-exit
// curtailment): the trace was hot but the remaining cycle budget could
// not absorb a worst-case iteration, so the interpreter runs the block
// to make the abort land on the exact instruction.
func (v *VM) noteBudgetDeopt(t *trace) {
	t.deopts[DeoptBudget]++
	if v.tel != nil {
		v.tel.jitDeopts.Inc()
		v.tel.jitDeoptBy[DeoptBudget].Inc()
	}
	v.Flight.Record(obs.EvDeopt, uint8(DeoptBudget), v.RIP, t.entryPC)
}

// traceFits is the budget guard: a trace is entered, and its back edge
// taken, only when a worst-case iteration fits in the remaining budget.
func (v *VM) traceFits(t *trace) bool {
	return v.MaxCycles == 0 || (v.Cycles <= v.MaxCycles && v.MaxCycles-v.Cycles >= t.maxCost)
}

// runTrace executes t until control leaves the compiled tier. It returns
// (nil, nil) when entry is refused — the remaining cycle budget cannot
// absorb a worst-case iteration — in which case no state was touched and
// the caller interprets the block. On an exit it returns the exit record
// with the VM state fully materialized; err carries the fault of an
// ExitFault.
//
// Trace linking: when an exit's cached successor block already roots a
// trace that the budget guard admits, runTrace enters it directly,
// recording exactly what the round trip through runBlocks would (the
// deopt, then the trace entry). A cache miss, a cold successor or a
// refusal returns the exit to runBlocks.
func (v *VM) runTrace(t *trace) (*traceExit, error) {
	if !v.traceFits(t) {
		v.noteBudgetDeopt(t)
		return nil, nil // budget too tight: abort must fire at the exact inst
	}
	for {
		v.Flight.Record(obs.EvTraceEnter, 0, t.entryPC, 0)
		j := &t.ctx
		j.flags = v.Flags
		j.err = nil
		e := v.iterate(t, j)
		if e.kind == ExitLoop { // curtailed by the budget guard
			return e, nil
		}
		// The single spill: deferred flags and RIP materialize here;
		// cycles and retired instructions did in iterate.
		v.Flags = j.flags
		if e.dynamic {
			v.RIP = j.dynRIP
		} else {
			v.RIP = e.rip
		}
		if e.deopt {
			t.deopts[e.reason]++
			v.Flight.Record(obs.EvDeopt, uint8(e.reason), v.RIP, t.entryPC)
		}
		if v.tel != nil {
			v.applyTraceTel(t, e)
		}
		if j.err != nil {
			return e, j.err
		}
		n := e.next
		if v.Halted || n == nil || n.trace == nil || e.nextPC != v.RIP || !v.traceFits(n.trace) {
			return e, nil
		}
		t = n.trace
	}
}

// iterate runs t's closures until an exit other than the back edge, and
// charges the static cycles and retired instructions of every exit taken.
// The back edge keeps flags and RIP deferred in j; it spills them only
// when the budget guard curtails the loop, and then returns that exit.
func (v *VM) iterate(t *trace, j *jctx) *traceExit {
	for {
		t.entries++
		if v.tel != nil {
			v.tel.jitEnters.Inc()
		}
		e := t.last
		for _, s := range t.steps {
			if id := s(j); id != cont {
				e = &t.exits[id-1]
				break
			}
		}
		// Dynamic cycles (check costs) were already charged by their
		// closures.
		v.Cycles += e.cycles
		v.Insts += e.retired
		if e.kind != ExitLoop {
			return e
		}
		if v.tel != nil {
			v.applyTraceTel(t, e)
		}
		if !v.traceFits(t) {
			v.Flags, v.RIP = j.flags, e.rip
			v.noteBudgetDeopt(t)
			return e
		}
	}
}

// applyTraceTel replays the telemetry the interpreter would have
// recorded along e's path: the precomputed aggregate for terminal exits,
// or a per-step replay (plus the exiting step's partial delta) for side
// and fault exits.
func (v *VM) applyTraceTel(t *trace, e *traceExit) {
	tel := v.tel
	tel.retiredAll.Add(e.retired)
	tel.jitInsts.Add(e.retired)
	if e.deopt {
		tel.jitDeopts.Inc()
		tel.jitDeoptBy[e.reason].Inc()
	}
	if b := e.batch; b != nil {
		for i := range b.ops {
			tel.retired[b.ops[i].op].Add(b.ops[i].n)
		}
		tel.loads.Add(b.loads)
		tel.stores.Add(b.stores)
		tel.branches.Add(b.branches)
		tel.patchHits.Add(b.patch)
		return
	}
	for i := 0; i < e.step; i++ {
		v.applyStepTel(&t.meta[i])
	}
	v.applyStepTel(&e.self)
}

// applyStepTel applies one step's counter deltas.
func (v *VM) applyStepTel(m *stepTel) {
	tel := v.tel
	tel.retired[m.op].Inc()
	if m.loads != 0 {
		tel.loads.Add(uint64(m.loads))
	}
	if m.stores != 0 {
		tel.stores.Add(uint64(m.stores))
	}
	if m.branches != 0 {
		tel.branches.Add(uint64(m.branches))
	}
	if m.patch != 0 {
		tel.patchHits.Add(uint64(m.patch))
	}
}
