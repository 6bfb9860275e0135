// Package redfat is the public API of RedFat-Go: a reproduction of
// "Hardening Binaries against More Memory Errors" (Duck, Zhang, Yap —
// EuroSys 2022) as a Go library.
//
// RedFat hardens binaries against memory errors by combining two
// complementary detection methodologies — poisoned redzones and low-fat
// pointers — injected through E9Patch-style static trampoline rewriting,
// with a profile-based allow-list that suppresses low-fat false positives.
//
// This package operates on RELF binaries for the RF64 architecture (an
// x86-64 subset; see internal/isa), which the library can assemble, run
// on a deterministic virtual machine, instrument, and measure. The
// substitution of substrate (RF64 VM instead of native x86-64) is
// documented in DESIGN.md; every mechanism of the paper — the allocator
// layout, the combined check, the rewriting tactics, the optimizations,
// the two-phase workflow — is implemented faithfully on top of it.
//
// Basic use:
//
//	bin, _ := redfat.Assemble(src)            // or LoadBinary(path)
//	hard, rep, _ := redfat.Harden(bin, redfat.Defaults())
//	res, _ := redfat.Run(hard, redfat.RunOptions{Hardened: true})
package redfat

import (
	"fmt"
	"io"
	"net"
	"os"
	"sort"

	"redfat/internal/asm"
	"redfat/internal/forensics"
	"redfat/internal/memcheck"
	"redfat/internal/obs"
	"redfat/internal/profile"
	core "redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/verify"
	"redfat/internal/vm"
)

// Binary is a RELF binary image (see internal/relf for the format).
type Binary = relf.Binary

// Options selects the instrumentation configuration (see
// internal/redfat.Options for field documentation).
type Options = core.Options

// Report summarizes an instrumentation run.
type Report = core.Report

// AllowList is a set of instruction addresses approved for full
// (Redzone)+(LowFat) checking.
type AllowList = profile.AllowList

// MemError is a detected memory error.
type MemError = vm.MemError

// CycleLimitError reports that execution exceeded the cycle budget.
type CycleLimitError = vm.CycleLimitError

// Metrics is a telemetry registry: counters, gauges and histograms filled
// in by the instrumented layers (VM dispatch, allocators, checks). Create
// one with NewMetrics, pass it in RunOptions, then export it with its
// Snapshot/WriteJSON/WritePrometheus/WriteText methods.
type Metrics = telemetry.Registry

// GuestProfiler is a cycle-budget-driven guest PC sampler attached to
// the VM dispatch loop. Create one with NewGuestProfiler, pass it in
// RunOptions, then export it with WriteFolded/WriteHotSites.
type GuestProfiler = vm.GuestProfiler

// Flight is the flight recorder, the one event ring: a bounded ring of
// recent VM events (block/trace entries, JIT compiles, deopts with
// reason, TLB flushes, icache generations, check failures, budget
// aborts), stamped in guest cycles. It is allocated as it first fills,
// and recording into a full ring allocates nothing. Setting its
// Execution field selects execution grain, which also records every
// retire, trampoline entry, runtime call, check pass, alloc and free,
// and pins the run to the interpreter. Create one with NewFlight, pass
// it in RunOptions, then export it with Dump. Host-side only: guest
// cycle accounting is bit-identical with it on or off.
type Flight = obs.Flight

// FlightDump is a flight recorder's serializable dump (see obs.FlightDump).
type FlightDump = obs.FlightDump

// ObsServer is the live introspection HTTP server serving /metrics,
// /snapshot, /traces, /profile and /flight from published State.
type ObsServer = obs.Server

// ObsState is one published introspection snapshot (telemetry, trace
// table, folded profile, flight dump).
type ObsState = obs.State

// TraceRow is one compiled superblock as a row of the /traces table:
// its shape and runtime behaviour, including its per-reason deopt
// counts.
type TraceRow = obs.TraceRow

// ErrorReport is a fully resolved memory error: symbolized PCs, guest
// stacks, and owning-object attribution (see internal/forensics).
type ErrorReport = forensics.ErrorReport

// Frame is one symbolized guest PC inside an ErrorReport or profile.
type Frame = forensics.Frame

// Symbolizer resolves guest PCs to function symbols across the modules
// of a run.
type Symbolizer = forensics.Symbolizer

// NewMetrics creates an empty telemetry registry.
func NewMetrics() *Metrics { return telemetry.New() }

// NewGuestProfiler creates a guest sampling profiler firing every
// interval guest cycles (0 = the default interval).
func NewGuestProfiler(interval uint64) *GuestProfiler {
	return &vm.GuestProfiler{Interval: interval}
}

// NewSymbolizer builds a symbolizer over the given modules (stripped
// modules degrade to raw "<0x...>" addresses).
func NewSymbolizer(bins ...*Binary) *Symbolizer { return forensics.NewSymbolizer(bins...) }

// NewFlight creates a flight recorder retaining the last capacity events
// (0 = the default capacity).
func NewFlight(capacity int) *Flight { return obs.NewFlight(capacity) }

// NewObsServer creates a live introspection server. Publish State to it
// and mount its Handler (or use ServeObs). Endpoints serve only the
// published immutable snapshot — to expose a flight ring, dump it on the
// VM goroutine (or after Run) and publish the dump in ObsState.Flight;
// handlers never read the live ring, so scraping mid-run is safe.
func NewObsServer() *ObsServer { return obs.NewServer() }

// ServeObs serves the introspection endpoints on l until the listener
// closes (blocking; run it in a goroutine alongside the guest).
func ServeObs(l net.Listener, s *ObsServer) error { return obs.Serve(l, s) }

// WriteFolded renders a profiler's aggregated stacks in folded
// (flamegraph) format, one "frames... cycles" line per unique stack.
func WriteFolded(w io.Writer, p *GuestProfiler, sym *Symbolizer) error {
	return forensics.WriteFolded(w, p, sym)
}

// WriteHotSites renders a profiler's per-PC hot-site table, hottest
// first; top bounds the rows (0 = all).
func WriteHotSites(w io.Writer, p *GuestProfiler, sym *Symbolizer, top int) error {
	return forensics.WriteHotSites(w, p, sym, top)
}

// WriteChromeTrace serializes a flight dump's events and a profiler's
// sample timeline (either may be nil) as Chrome trace-event JSON,
// loadable in chrome://tracing and Perfetto.
func WriteChromeTrace(w io.Writer, d *FlightDump, p *GuestProfiler, sym *Symbolizer) error {
	return forensics.WriteChromeTrace(w, d, p, sym)
}

// Defaults returns the fully optimized production configuration.
func Defaults() Options { return core.Defaults() }

// ErrorSites returns the set of distinct fault PCs among the errors.
func ErrorSites(errs []MemError) map[uint64]bool { return vm.ErrorSites(errs) }

// DistinctErrorSites counts the distinct fault PCs among the errors.
func DistinctErrorSites(errs []MemError) int { return vm.DistinctErrorSites(errs) }

// Assemble builds a RELF binary from RF64 assembly text.
func Assemble(src string) (*Binary, error) { return asm.Assemble(src) }

// LoadBinary reads a serialized RELF binary from a file.
func LoadBinary(path string) (*Binary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return relf.Unmarshal(data)
}

// SaveBinary writes a RELF binary to a file.
func SaveBinary(bin *Binary, path string) error {
	data, err := bin.Marshal()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o755)
}

// Harden instruments a binary with the RedFat protection. The input is
// not modified; the returned binary is a drop-in replacement that must be
// run with the RedFat runtime (Run with Hardened: true, which models the
// LD_PRELOADed libredfat.so).
func Harden(bin *Binary, opt Options) (*Binary, *Report, error) {
	return core.Harden(bin, opt)
}

// VerifyReport is the outcome of a translation-validation run: summary
// counts plus every violation found (see internal/verify).
type VerifyReport = verify.Report

// VerifyViolation is one validation failure.
type VerifyViolation = verify.Violation

// VerifyHardened statically validates hard as a hardening of orig: every
// patched site round-trips through its trampoline, byte stealing never
// swallowed a jump target, the site table is referentially consistent,
// every trampoline saves at least the provably live state, and every
// operand the recorded policy selects is protected by a dominating or
// same-site check. Neither binary is executed.
func VerifyHardened(orig, hard *Binary) (*VerifyReport, error) {
	return verify.Verify(orig, hard)
}

// VerifyEdges audits the indirect-flow recovery against its own claims:
// the recovery pass runs over bin, and every recovered edge (jump-table
// slice, landing-pad set, RET pairing) is independently re-derived from
// the binary alone. Inert (empty report) for binaries that are not
// marker-built. Use it to audit a binary before hardening; VerifyHardened
// runs the same audit against the claims the rewriter actually consumed.
func VerifyEdges(bin *Binary) (*VerifyReport, error) {
	return verify.VerifyEdges(bin)
}

// VerifyStructural validates a hardened binary without its original:
// metadata decodes, trampolines reference valid check records exactly
// once (leaders first), and every trampoline returns to the text
// section. Weaker than VerifyHardened, but needs no reference binary.
func VerifyStructural(hard *Binary) (*VerifyReport, error) {
	return verify.Structural(hard)
}

// Analysis is the per-function dataflow report behind the
// -analysis-report flag (see internal/redfat.Analysis).
type Analysis = core.Analysis

// Analyze runs Harden's pipeline over bin under opt, rewriting only in
// memory, and reports per-function statistics: blocks, edges, dominator
// depth and the dead-register histogram of the unpatched program, and
// a count of the fates Harden gave the memory operands, whose totals
// equal Harden's Report.
func Analyze(bin *Binary, opt Options) (*Analysis, error) {
	return core.Analyze(bin, opt)
}

// ProfileAndHarden runs the two-phase workflow of paper Fig. 5: profile
// the binary against the test-suite inputs, generate the allow-list, and
// produce the production binary.
func ProfileAndHarden(bin *Binary, testSuite [][]uint64, opt Options) (*Binary, AllowList, *Report, error) {
	suite := make([]rtlib.RunConfig, len(testSuite))
	for i, in := range testSuite {
		suite[i] = rtlib.RunConfig{Input: in}
	}
	return profile.Run(bin, suite, opt)
}

// Knobs declares the execution knobs once (see rtlib.Knobs): RunOptions
// embeds it, a runpack replays it, and Knobs.RegisterFlags gives each
// its rfvm flag.
type Knobs = rtlib.Knobs

// RunOptions describes an execution: the runtime model (Hardened for the
// RedFat runtime, required for binaries produced by Harden; Memcheck for
// the Valgrind-Memcheck model; neither for the glibc baseline), the
// Input, Abort (stop at the first detected memory error), the MaxCycles
// budget, Forensics (fills Result.Reports), the execution Knobs and
// RandomizeHeap, plus the host-side observers Metrics, Profiler and
// Flight. It is rtlib.RunConfig, whose fields carry the full
// documentation, and a runpack records it as the replay spec.
type RunOptions = rtlib.RunConfig

// CheckStat reports one instrumentation site's runtime behaviour.
type CheckStat struct {
	PC           uint64 // original instruction address
	Operand      string // the checked memory operand (AT&T syntax)
	Mode         string // "full", "redzone" or "profile"
	Merged       int    // original operands covered by this check
	Execs        uint64 // times the check executed
	LowFatFails  uint64 // violations flagged via the base(ptr) LowFat path
	RedzoneFails uint64 // violations flagged via the base(LB) fallback
}

// Result reports an execution.
type Result struct {
	ExitCode uint64
	Cycles   uint64
	Insts    uint64
	Output   []byte
	// Errors are the detected memory errors (also returned as the run
	// error when Abort is set).
	Errors []MemError
	// Coverage is the fraction of executed checks running in full
	// (Redzone)+(LowFat) mode; only set for hardened runs.
	Coverage float64
	// Checks holds per-site statistics, sorted by execution count
	// (hardened runs only).
	Checks []CheckStat
	// Reports are the forensic resolutions of Errors, in the same order
	// (only set when RunOptions.Forensics is on).
	Reports []*ErrorReport
	// Traces holds one row per compiled superblock (compilation order),
	// including per-reason deopt counts, with Symbol left empty; nil
	// when the JIT compiled nothing.
	Traces []TraceRow
}

// Run executes a binary on the RF64 VM.
func Run(bin *Binary, opt RunOptions) (*Result, error) {
	var (
		v   *vm.VM
		rt  *rtlib.Runtime
		err error
	)
	switch {
	case opt.Memcheck && opt.Hardened:
		return nil, fmt.Errorf("redfat: Memcheck and Hardened are mutually exclusive")
	case opt.Memcheck:
		v, err = memcheck.Run(bin, opt)
	case opt.Hardened:
		v, rt, err = rtlib.RunHardened(bin, opt)
	default:
		v, err = rtlib.RunBaseline(bin, opt)
	}
	res := newResult(v, &opt, bin)
	if rt != nil {
		res.addSiteStats(opt.Metrics, rt)
	}
	return res, err
}

// RunLinked executes a dynamically linked program: the main executable
// plus shared-object dependencies (paper §7.4). Each module may be
// hardened independently; only instrumented modules are protected.
// Libraries must be built (or rebased) at non-overlapping addresses
// before hardening. Memcheck mode is not supported for linked programs.
func RunLinked(main *Binary, libs []*Binary, opt RunOptions) (*Result, error) {
	if opt.Memcheck {
		return nil, fmt.Errorf("redfat: Memcheck does not support linked programs")
	}
	v, rts, err := rtlib.RunLinked(main, libs, opt)
	res := newResult(v, &opt, append([]*Binary{main}, libs...)...)
	res.addSiteStats(opt.Metrics, rts...)
	return res, err
}

// addSiteStats sets the coverage and per-site statistics of a hardened
// run from the check runtimes of its modules, and publishes the site
// stats into reg.
func (res *Result) addSiteStats(reg *telemetry.Registry, rts ...*rtlib.Runtime) {
	res.Coverage = rtlib.Coverage(rts...)
	for _, rt := range rts {
		rt.PublishSiteStats(reg)
		for i := range rt.Checks {
			c := &rt.Checks[i]
			res.Checks = append(res.Checks, CheckStat{
				PC:           c.PC,
				Operand:      c.Operand.String(),
				Mode:         c.Mode.String(),
				Merged:       int(c.Merged),
				Execs:        rt.Stats[i].Execs,
				LowFatFails:  rt.Stats[i].LowFatFails,
				RedzoneFails: rt.Stats[i].RedzoneFails,
			})
		}
	}
	sort.Slice(res.Checks, func(i, j int) bool {
		return res.Checks[i].Execs > res.Checks[j].Execs
	})
}

// newResult reports a finished VM (nil leaves the result empty),
// resolving forensic reports against the run's modules when opt asks
// for them.
func newResult(v *vm.VM, opt *RunOptions, bins ...*Binary) *Result {
	res := &Result{}
	if v == nil {
		return res
	}
	res.ExitCode = v.ExitCode
	res.Cycles = v.Cycles
	res.Insts = v.Insts
	res.Output = v.Output
	res.Errors = v.Errors
	res.Traces = v.TraceRows()
	if opt.Forensics {
		res.Reports = buildReports(v, bins...)
	}
	return res
}

// buildReports resolves a finished VM's trapped errors into forensic
// reports, symbolizing against the run's modules and attributing faults
// to the allocator the VM parked in its Allocator field.
func buildReports(v *vm.VM, bins ...*Binary) []*ErrorReport {
	if len(v.Errors) == 0 {
		return nil
	}
	alloc := v.Allocator
	if w, ok := alloc.(*memcheck.Wrapper); ok {
		alloc = w.H // attribute against the underlying baseline heap
	}
	rep := forensics.NewReporter(forensics.NewSymbolizer(bins...), alloc)
	return rep.ReportAll(v.Errors)
}

// SaveAllowList writes an allow-list to a file.
func SaveAllowList(a AllowList, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return a.Save(f)
}

// LoadAllowList reads an allow-list from a file.
func LoadAllowList(path string) (AllowList, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return profile.Load(f)
}
