// Package vm implements the RF64 virtual machine: a CPU interpreter over
// the sparse paged memory of package mem.
//
// The VM is the testbed on which all experiments run. It executes RELF
// binaries — original, RedFat-hardened, or under the Memcheck DBI model —
// and accounts execution in cycles so that the paper's slow-down factors
// can be measured deterministically.
//
// Host runtime functions (the RTCALL instruction) model calls into shared
// libraries: libc (malloc, memset, I/O) and libredfat (the instrumented
// checks). A handler reads guest registers directly and charges an explicit
// cycle cost equal to the instruction sequence it stands for; the cost
// model is documented in internal/rtlib.
package vm

import (
	"fmt"
	"sort"

	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/obs"
	"redfat/internal/relf"
	"redfat/internal/telemetry"
)

// Flags is the RF64 condition-code state (an EFLAGS subset).
type Flags struct {
	ZF, SF, CF, OF bool
}

// pack encodes flags using the x86 EFLAGS bit layout.
func (f Flags) pack() uint64 {
	var v uint64 = 0x2 // bit 1 is always set in EFLAGS
	if f.CF {
		v |= 1 << 0
	}
	if f.ZF {
		v |= 1 << 6
	}
	if f.SF {
		v |= 1 << 7
	}
	if f.OF {
		v |= 1 << 11
	}
	return v
}

func unpackFlags(v uint64) Flags {
	return Flags{
		CF: v&(1<<0) != 0,
		ZF: v&(1<<6) != 0,
		SF: v&(1<<7) != 0,
		OF: v&(1<<11) != 0,
	}
}

// HostFunc is a runtime function bound to an RTCALL import slot. arg is
// the static argument encoded in the RTCALL immediate (bits 12..31);
// ordinary libc functions ignore it, libredfat checks use it as the
// instrumentation-site index.
type HostFunc func(v *VM, arg uint32) error

// RTCallImm builds an RTCALL immediate from an import index and a static
// argument.
func RTCallImm(importIdx int, arg uint32) int64 {
	return int64(uint32(importIdx)&0xFFF) | int64(arg)<<12
}

// SplitRTCallImm is the inverse of RTCallImm.
func SplitRTCallImm(imm int64) (importIdx int, arg uint32) {
	return int(imm & 0xFFF), uint32(uint64(imm) >> 12)
}

// ExitSentinel is the return address pushed below the entry point; a RET
// to it terminates the program (models returning from main into
// __libc_start_main).
const ExitSentinel = 0xFFFF_FFFF_FFFF_F000

// Default cycle costs. These approximate a simple in-order machine; the
// absolute values are arbitrary but the *relative* costs (memory ops,
// branch redirection, trap dispatch) are what shape the measured
// overheads.
const (
	CostInst   = 1   // any instruction
	CostMem    = 2   // extra for a memory access
	CostBranch = 1   // extra for a taken branch
	CostCall   = 2   // extra for call/ret
	CostMul    = 2   // extra for imul
	CostDiv    = 20  // extra for udiv/idiv
	CostTrap   = 150 // trap-patch dispatch (signal-style redirection)
)

// MemErrorKind classifies a detected memory error.
type MemErrorKind uint8

// Memory error kinds reported by instrumentation.
const (
	ErrOOBWrite MemErrorKind = iota
	ErrOOBRead
	ErrUseAfterFree
	ErrCorruptMeta
	ErrInvalidFree
	ErrOverlap
)

// String names the error kind.
func (k MemErrorKind) String() string {
	switch k {
	case ErrOOBWrite:
		return "out-of-bounds write"
	case ErrOOBRead:
		return "out-of-bounds read"
	case ErrUseAfterFree:
		return "use-after-free"
	case ErrCorruptMeta:
		return "corrupted metadata"
	case ErrInvalidFree:
		return "invalid free"
	case ErrOverlap:
		return "overlapping copy"
	}
	return "memory error"
}

// MemError is a detected memory error report.
type MemError struct {
	Kind MemErrorKind
	Addr uint64 // faulting access address
	PC   uint64 // program counter of the access
	Site uint32 // instrumentation site (0 if not site-based)
	Note string

	// Component attributes the detection to a methodology when known:
	// "lowfat" (found via base(ptr)) or "redzone" (found via the
	// base(LB) fallback). Empty for allocator-detected errors.
	Component string

	// Stack is the guest return-address chain at the faulting access,
	// innermost caller first, captured host-side by VM.Backtrace when
	// VM.ErrorStackDepth is set. Nil otherwise.
	Stack []uint64
}

// Error implements the error interface. The message carries every
// populated diagnostic field: the site index when the error came from an
// instrumented check, and the free-form Note.
func (e *MemError) Error() string {
	s := fmt.Sprintf("%s at address %#x (pc %#x", e.Kind, e.Addr, e.PC)
	if e.Site != 0 {
		s += fmt.Sprintf(", site %d", e.Site)
	}
	s += ")"
	if e.Note != "" {
		s += ": " + e.Note
	}
	return s
}

// SiteList returns the sorted distinct values of pcs. It is the single
// dedup/ordering implementation behind the "distinct error sites" views,
// ErrorSites and DistinctErrorSites.
func SiteList(pcs []uint64) []uint64 {
	out := append([]uint64(nil), pcs...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	n := 0
	for _, pc := range out {
		if n == 0 || out[n-1] != pc {
			out[n] = pc
			n++
		}
	}
	return out[:n]
}

// ErrorSites returns the set of distinct program counters among the given
// error reports — the unit the paper counts detections and false
// positives in (one site, many dynamic occurrences).
func ErrorSites(errs []MemError) map[uint64]bool {
	pcs := make([]uint64, len(errs))
	for i := range errs {
		pcs[i] = errs[i].PC
	}
	set := make(map[uint64]bool, len(errs))
	for _, pc := range SiteList(pcs) {
		set[pc] = true
	}
	return set
}

// DistinctErrorSites counts the distinct program counters among errs.
func DistinctErrorSites(errs []MemError) int { return len(ErrorSites(errs)) }

// VM is an RF64 machine instance.
//
// Field order is deliberate: the dispatch loop touches Mem, RIP, Flags,
// the cycle/instruction counters and the hook pointers on every retired
// instruction, so they are grouped (with the register file immediately
// after) to share the struct's first cache lines.
type VM struct {
	Mem   *mem.Memory
	RIP   uint64
	Flags Flags

	Cycles    uint64
	MaxCycles uint64 // execution budget; 0 means none
	Insts     uint64 // retired instruction count

	// PerInstOverhead adds cycles to every retired instruction; the
	// Memcheck DBI model uses it for its dispatch overhead.
	PerInstOverhead uint64

	// Profiler, when set, samples the guest PC (with a backtrace) every
	// Profiler.Interval guest cycles from the shared dispatch body, under
	// Run and Step alike. Sampling is host-side only:
	// guest cycles, errors and output are bit-identical with and without
	// a profiler attached.
	Profiler *GuestProfiler

	// Flight, when set, records dispatch-level events (trace entries,
	// compiles, deopts with reason, icache generations, check failures,
	// budget aborts) into the flight recorder. At default grain it never
	// pins execution to the interpreter: every record point is off the
	// per-instruction fast path. At execution grain (Flight.Execution)
	// it also records every retire, trampoline entry and runtime call,
	// and the run stays in the interpreter. Either way events are
	// stamped in guest cycles and the ring's content is deterministic —
	// guest cycles, detections and telemetry are bit-identical with a
	// recorder attached or not. Nil-safe: all record calls go through
	// obs.Flight's nil receiver.
	Flight *obs.Flight

	// execEvents caches Flight.Execution at Run, so the per-instruction
	// cost of default grain is this one branch.
	execEvents bool

	// tel holds pre-resolved metric handles when telemetry is attached;
	// nil (the default) means every instrumentation point is a single
	// predictable branch and the cycle accounting is untouched.
	tel *vmMetrics

	// MemHook, if set, is invoked for every memory access the guest
	// performs (before it happens). The Memcheck model uses this to run
	// shadow checks. Returning an error aborts execution.
	MemHook func(v *VM, addr uint64, size uint16, write bool) error

	// BlockHook, if set, is invoked at every branch target (basic-block
	// entry, approximately). The Memcheck model charges JIT translation
	// cost here.
	BlockHook func(v *VM, addr uint64)

	Regs [isa.NumRegs]uint64

	// FSBase and GSBase are the segment base registers.
	FSBase, GSBase uint64

	Halted   bool
	ExitCode uint64

	// PatchTable redirects TRAP instructions to trampolines (the 1-byte
	// patch tactic). Loaded from the binary's .rf.patch section.
	PatchTable map[uint64]uint64

	// Abort makes detected memory errors terminate execution
	// (hardening mode); otherwise they are recorded and execution
	// continues (profiling / bug-finding mode).
	Abort  bool
	Errors []MemError

	// ErrorStackDepth, when positive, makes Report capture a guest
	// backtrace of up to that many frames into MemError.Stack. Capture is
	// host-side only (a frame-walk over guest memory) and never charges
	// guest cycles.
	ErrorStackDepth int

	// Allocator is set by the runtime layer at load time to the guest
	// allocator instance serving this run (a *heap.Heap, *redzone.Heap,
	// or Memcheck wrapper). The VM never touches it; it exists so
	// host-side forensics can resolve faulting addresses to owning
	// objects without threading the allocator through every return path.
	Allocator any

	// Output collects bytes written by the output host functions.
	Output []byte

	// Input supplies values to the rf_input host function.
	Input    []uint64
	inputPos int

	// randState drives the deterministic rf_rand host function.
	randState uint64

	hostFuncs []HostFunc // import bindings of the main executable
	binary    *relf.Binary

	// NoJIT disables the superblock translation tier: hot chained traces
	// are never compiled and every instruction retires through the
	// interpreter. An ablation knob: guest cycles, detections and exit
	// codes are bit-identical with the tier on or off.
	NoJIT bool

	// JITThreshold is the number of block entries before a trace rooted
	// at that block is compiled (0 selects DefaultJITThreshold).
	JITThreshold uint64

	// LPADCheck enforces CET-style landing pads: an indirect JMP or CALL
	// whose target byte is not an LPAD instruction faults. Set by the
	// runtime layer when the binary opted in (it carries a .rf.jt
	// section); this is guest-visible binary semantics, not an ablation
	// knob.
	LPADCheck bool

	// IndirectTargets, when set by the runtime layer, maps each
	// statically resolved indirect-branch site (PC) to its recovered
	// target set from internal/cfg's indirect-flow recovery. The
	// interpreter uses it as a dynamic soundness monitor: a transfer
	// outside the recovered set bumps vm.indirect.escape.count. The
	// monitor is host-side telemetry only — guest cycles, detections and
	// output are bit-identical with or without it attached.
	IndirectTargets map[uint64]map[uint64]bool

	// InlineCheck, when set by the runtime layer, resolves an RTCALL at
	// pc (import importIdx, static argument arg) into a fusable check
	// plan, or nil when the call is not an instrumented check. The JIT
	// uses it to keep check sites on-trace; the interpreter never calls
	// it.
	InlineCheck func(v *VM, pc uint64, importIdx int, arg uint32) *JITCheck

	// traces holds every compiled superblock, for the verify certifier
	// (CompiledTraces) and -stats reporting. Cleared by FlushICache:
	// traces embed predecoded instructions exactly like blocks do.
	traces []*trace

	// Decoded basic-block cache (see blockcache.go).
	bcache      map[uint64]*codePage
	bcPageIdx   uint64
	bcPage      *codePage
	nBlocks     int         // blocks currently cached
	nBlockInsts int         // predecoded instructions currently cached
	blockBuf    []blockInst // buildBlock's decode scratch

	// modules supports dynamically-linked RELF shared objects: each
	// loaded module carries its own import bindings (RTCALL immediates
	// index the containing module's import table, like per-DSO PLTs).
	modules []moduleEntry
	// exports accumulates function symbols of loaded libraries for
	// import resolution (the dynamic-linker view).
	exports  map[string]uint64
	modCache *moduleEntry
}

// vmMetrics is the VM's set of registry handles, resolved once at attach
// time so the dispatch loop never performs a map lookup.
type vmMetrics struct {
	retired      [isa.NumOps]*telemetry.Counter // per-opcode retirement
	retiredAll   *telemetry.Counter
	loads        *telemetry.Counter
	stores       *telemetry.Counter
	branches     *telemetry.Counter
	patchHits    *telemetry.Counter // TRAP dispatches through the patch table
	rtcalls      *telemetry.Counter
	rtcallCost   *telemetry.Counter   // guest cycles attributed to RTCALL handlers
	rtcallHist   *telemetry.Histogram // cycles-per-dispatch distribution
	memErrors    *telemetry.Counter
	cycles       *telemetry.Gauge
	insts        *telemetry.Gauge
	icacheSize   *telemetry.Gauge
	icacheBlocks *telemetry.Gauge
	icacheMiss   *telemetry.Counter
	chainHits    *telemetry.Counter // block exits resolved via chained successors
	chainMisses  *telemetry.Counter // block exits that walked the block tables
	exitCode     *telemetry.Gauge
	cycleAborts  *telemetry.Counter
	jitCompiles  *telemetry.Counter // superblock traces compiled
	jitEnters    *telemetry.Counter // trace entries (incl. loop-back iterations)
	jitInsts     *telemetry.Counter // instructions retired inside traces
	jitDeopts    *telemetry.Counter // deopts back to the interpreter (all reasons)
	jitDeoptBy   [NumDeoptReasons]*telemetry.Counter
	jitCompileNS *telemetry.Histogram // wall-clock nanoseconds per compile

	libcSpanChecks *telemetry.Counter // hardened-libc span checks executed
	libcSpanFails  *telemetry.Counter // hardened-libc span checks that flagged

	indirectEscapes *telemetry.Counter // indirect transfers outside the recovered target set
}

// AttachTelemetry binds the VM's dispatch-level metrics to reg (nil is
// a no-op). Must be called before Run; attaching costs nothing on the
// guest cycle count.
func (v *VM) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	t := &vmMetrics{
		retiredAll:   reg.Counter("vm.retired.total"),
		loads:        reg.Counter("vm.mem.loads"),
		stores:       reg.Counter("vm.mem.stores"),
		branches:     reg.Counter("vm.branches.taken"),
		patchHits:    reg.Counter("vm.patch.hits"),
		rtcalls:      reg.Counter("vm.rtcall.count"),
		rtcallCost:   reg.Counter("vm.rtcall.cycles"),
		rtcallHist:   reg.Histogram("vm.rtcall.dispatch.cycles", telemetry.Pow2Bounds(2, 12)),
		memErrors:    reg.Counter("vm.mem.errors"),
		cycles:       reg.Gauge("vm.cycles"),
		insts:        reg.Gauge("vm.insts"),
		icacheSize:   reg.Gauge("vm.icache.entries"),
		icacheBlocks: reg.Gauge("vm.icache.blocks"),
		icacheMiss:   reg.Counter("vm.icache.misses"),
		chainHits:    reg.Counter("vm.icache.chain.hits"),
		chainMisses:  reg.Counter("vm.icache.chain.misses"),
		exitCode:     reg.Gauge("vm.exit.code"),
		cycleAborts:  reg.Counter("vm.cycle.limit.aborts"),
		jitCompiles:  reg.Counter("vm.jit.compile.count"),
		jitEnters:    reg.Counter("vm.jit.enter.count"),
		jitInsts:     reg.Counter("vm.jit.exec.insts"),
		jitDeopts:    reg.Counter("vm.jit.deopt.count"),
		jitCompileNS: reg.Histogram("vm.jit.compile.ns", telemetry.Pow2Bounds(10, 20)),

		libcSpanChecks: reg.Counter("vm.libc.span.check.count"),
		libcSpanFails:  reg.Counter("vm.libc.span.fail.count"),

		indirectEscapes: reg.Counter("vm.indirect.escape.count"),
	}
	for op := 0; op < isa.NumOps; op++ {
		t.retired[op] = reg.Counter("vm.retired." + isa.Op(op).String())
	}
	for r := DeoptReason(0); int(r) < NumDeoptReasons; r++ {
		t.jitDeoptBy[r] = reg.Counter("vm.jit.deopt." + r.String() + ".count")
	}
	v.tel = t
}

// FlushTelemetry publishes the VM's end-of-run totals (cycles, retired
// instructions, exit code) into the attached registry. Safe to call any
// number of times, including after an aborted run.
//
// The vm.icache.* gauges describe the block cache: predecoded
// instructions and block count.
func (v *VM) FlushTelemetry() {
	if v.tel == nil {
		return
	}
	v.tel.cycles.Set(v.Cycles)
	v.tel.insts.Set(v.Insts)
	v.tel.icacheSize.Set(uint64(v.nBlockInsts))
	v.tel.icacheBlocks.Set(uint64(v.nBlocks))
	v.tel.exitCode.Set(v.ExitCode)
}

// New creates a VM over the given memory.
func New(m *mem.Memory) *VM {
	return &VM{
		Mem:       m,
		bcache:    make(map[uint64]*codePage),
		bcPageIdx: ^uint64(0),
	}
}

// Bindings maps import names to host functions.
type Bindings map[string]HostFunc

// Load maps a RELF executable into memory, binds its imports (against
// host bindings and the exports of any libraries loaded earlier via
// LoadLibrary), initializes the stack and sets RIP to the entry point.
func (v *VM) Load(bin *relf.Binary, env Bindings) error {
	if err := v.mapSections(bin); err != nil {
		return err
	}
	host, err := v.bindImports(bin, env)
	if err != nil {
		return err
	}
	v.hostFuncs = host
	if err := v.registerModule(bin, host); err != nil {
		return err
	}

	// Stack.
	stackBase := uint64(relf.DefaultStackTop - relf.DefaultStackSize)
	v.Mem.Map(stackBase, relf.DefaultStackSize, mem.PermRW)
	v.Regs[isa.RSP] = relf.DefaultStackTop - 64
	if err := v.push(ExitSentinel); err != nil {
		return err
	}

	v.RIP = bin.Entry
	v.binary = bin
	return nil
}

// Report records a detected memory error, honouring Abort. When
// ErrorStackDepth is set and the reporter did not capture a stack itself,
// the guest backtrace at the point of detection is attached.
func (v *VM) Report(e MemError) error {
	if v.ErrorStackDepth > 0 && e.Stack == nil {
		e.Stack = v.Backtrace(v.ErrorStackDepth)
	}
	v.Errors = append(v.Errors, e)
	v.Flight.Record(obs.EvCheckFail, uint8(e.Kind), e.PC, e.Addr)
	if v.tel != nil {
		v.tel.memErrors.Inc()
	}
	if v.Abort {
		v.Halted = true
		cp := e
		return &cp
	}
	return nil
}

// CountLibcSpanCheck records one hardened-libc span check execution in
// the attached telemetry. Nil-safe: without a registry it is a single
// branch, and it never touches guest cycle accounting.
func (v *VM) CountLibcSpanCheck() {
	if v.tel != nil {
		v.tel.libcSpanChecks.Inc()
	}
}

// CountLibcSpanFail records one hardened-libc span check that flagged a
// violation. Nil-safe like CountLibcSpanCheck.
func (v *VM) CountLibcSpanFail() {
	if v.tel != nil {
		v.tel.libcSpanFails.Inc()
	}
}

// maxBacktraceScan bounds the stack words examined per frame-walk, so a
// walk over a huge or unusual stack stays cheap and deterministic.
const maxBacktraceScan = 512

// Backtrace captures the guest return-address chain, innermost caller
// first, with at most max frames. It is a conservative frame-walk: guest
// stack words from RSP upward are scanned for values that land in
// executable memory (the shape CALL leaves behind), stopping at the exit
// sentinel, the end of mapped stack, or the scan bound. The walk is
// heuristic — data words that alias code addresses can appear as frames —
// but it is read-only, host-side, and charges zero guest cycles, so
// enabling capture never perturbs measured slow-downs.
func (v *VM) Backtrace(max int) []uint64 {
	if max <= 0 {
		max = 8
	}
	var pcs []uint64
	sp := v.Regs[isa.RSP]
	for scanned := 0; scanned < maxBacktraceScan && len(pcs) < max; scanned++ {
		w, err := v.Mem.Load(sp, 8)
		if err != nil {
			break // walked off the mapped stack
		}
		sp += 8
		if w == ExitSentinel {
			break // reached the frame below main
		}
		if w == 0 || v.Mem.PermAt(w)&mem.PermExec == 0 {
			continue // not a plausible return address
		}
		pcs = append(pcs, w)
	}
	return pcs
}

func (v *VM) push(val uint64) error {
	v.Regs[isa.RSP] -= 8
	return v.Mem.Store(v.Regs[isa.RSP], 8, val)
}

func (v *VM) pop() (uint64, error) {
	val, err := v.Mem.Load(v.Regs[isa.RSP], 8)
	if err != nil {
		return 0, err
	}
	v.Regs[isa.RSP] += 8
	return val, nil
}

// EA computes the effective address of a memory operand given the current
// register state, with nextRIP used for RIP-relative operands.
func (v *VM) EA(m isa.Mem, nextRIP uint64) uint64 {
	addr := uint64(int64(m.Disp))
	if m.Base != isa.RegNone {
		if m.Base == isa.RIP {
			addr += nextRIP
		} else {
			addr += v.Regs[m.Base]
		}
	}
	if m.Index != isa.RegNone {
		addr += v.Regs[m.Index] * uint64(m.Scale)
	}
	if m.Seg != isa.SegNone {
		if m.Seg == isa.SegFS {
			addr += v.FSBase
		} else if m.Seg == isa.SegGS {
			addr += v.GSBase
		}
	}
	return addr
}

// CycleLimitError reports that execution exceeded the cycle budget.
type CycleLimitError struct{ Cycles uint64 }

// Error implements the error interface.
func (e *CycleLimitError) Error() string {
	return fmt.Sprintf("vm: cycle limit exceeded (%d cycles)", e.Cycles)
}

// Run executes until the program halts or faults, through the decoded
// basic-block cache (see blockcache.go). Step is the per-instruction
// reference it must agree with.
func (v *VM) Run() error {
	if v.Flight != nil {
		v.Flight.BindCycles(&v.Cycles)
		v.Flight.SetLabeler(v.flightLabel)
		v.execEvents = v.Flight.Execution
	}
	defer v.FlushTelemetry()
	return v.runBlocks()
}

// overBudget ends a run that has exceeded MaxCycles.
func (v *VM) overBudget() error {
	v.Flight.Record(obs.EvBudgetPoll, 0, v.RIP, v.Cycles)
	if v.tel != nil {
		v.tel.cycleAborts.Inc()
	}
	return &CycleLimitError{v.Cycles}
}

// flightLabel names the kind-specific reason bytes of flight events: the
// deopt-reason enum for deopts and the memory-error kind for check
// failures (obs cannot import these enums itself). A retire is named by
// its disassembly, decoded from guest memory at dump time, or by its
// opcode when the code is no longer mapped.
func (v *VM) flightLabel(kind obs.EventKind, reason uint8, pc uint64) string {
	switch kind {
	case obs.EvDeopt:
		return DeoptReason(reason).String()
	case obs.EvCheckFail:
		return MemErrorKind(reason).String()
	case obs.EvInst:
		if in, err := v.decodeAt(pc); err == nil {
			return in.String()
		}
		return isa.Op(reason).String()
	}
	return ""
}

// decodeAt fetches and decodes the instruction at addr from guest
// executable memory.
func (v *VM) decodeAt(addr uint64) (isa.Inst, error) {
	var buf [isa.MaxInstLen]byte
	n := v.Mem.Fetch(addr, buf[:])
	if n == 0 {
		return isa.Inst{}, &mem.Fault{Addr: addr, Exec: true}
	}
	in, err := isa.Decode(buf[:n])
	if err != nil {
		return isa.Inst{}, fmt.Errorf("vm: at %#x: %w", addr, err)
	}
	return in, nil
}

// FlushICache drops the basic-block cache, including every chained
// successor pointer: chains only ever reference blocks reachable from the
// per-page tables being dropped here, so tables and chains are
// invalidated together (needed only if code is modified after it has
// executed; offline rewriting does not require it). Compiled superblock traces embed the same predecoded
// instructions, so they die with the cache generation too: the trace
// list is cleared and every per-block trace pointer is unreachable once
// the block tables are dropped.
func (v *VM) FlushICache() {
	v.Flight.Record(obs.EvICacheGen, 0, v.RIP, uint64(v.nBlocks))
	v.bcache = make(map[uint64]*codePage)
	v.bcPageIdx = ^uint64(0)
	v.bcPage = nil
	v.nBlocks, v.nBlockInsts = 0, 0
	v.traces = nil
}

// NextInput returns the next value from the input vector (0 when
// exhausted, like EOF).
func (v *VM) NextInput() uint64 {
	if v.inputPos >= len(v.Input) {
		return 0
	}
	val := v.Input[v.inputPos]
	v.inputPos++
	return val
}

// NextRand steps the VM's deterministic PRNG (xorshift64*).
func (v *VM) NextRand() uint64 {
	if v.randState == 0 {
		v.randState = 0x853C49E6748FEA9B
	}
	x := v.randState
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	v.randState = x
	return x * 0x2545F4914F6CDD1D
}
