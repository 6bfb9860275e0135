package rtlib

import (
	"fmt"
	"io"

	"redfat/internal/cfg"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/lowfat"
	"redfat/internal/mem"
	"redfat/internal/obs"
	"redfat/internal/redzone"
	"redfat/internal/relf"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// RunConfig describes one run: the runtime model, the input, every
// setting that can change what the guest sees, and the host-side
// observers attached to it. It is the one declaration of a run: the
// root package's RunOptions is this type, and a runpack manifest records
// it as the replay spec. Every field with a JSON key is replayed; the
// observers are tagged "-" and are not. The keys and their order are the
// runpack's, and a field that changes guest behaviour needs one.
//
// Hardened selects the RedFat runtime and Memcheck the Valgrind-Memcheck
// model; with neither the run uses the glibc baseline. Only redfat.Run
// and runpack replay read the two: RunBaseline, RunHardened, RunLinked
// and memcheck.Run each are one runtime already.
type RunConfig struct {
	Input    []uint64 `json:"input,omitempty"` // consumed by rf_input
	Hardened bool     `json:"hardened,omitempty"`
	Memcheck bool     `json:"memcheck,omitempty"`

	// Abort stops at the first detected memory error (hardening mode);
	// otherwise errors are recorded and execution continues (testing and
	// profiling).
	Abort     bool   `json:"abort,omitempty"`
	MaxCycles uint64 `json:"max_cycles,omitempty"` // 0 → the runner's default budget

	// Forensics enables allocation-site backtrace capture in the bound
	// allocator and guest-backtrace capture on trapped memory errors
	// (forensicsDepth frames each), feeding the forensic report builder.
	// Guest cycle counts are bit-identical with it on or off; it is
	// replayed because it decides whether a run has reports to compare.
	Forensics bool `json:"forensics,omitempty"`

	// Knobs are the execution knobs (see Knobs).
	Knobs

	// RandomizeHeap enables the low-fat allocator's placement
	// randomization (the basic heap randomization paper §8 mentions).
	// Guest-visible: it moves the pointers malloc returns.
	RandomizeHeap bool `json:"randomize_heap,omitempty"`

	// TraceWriter, when set, receives one line per executed instruction
	// (address and disassembly), up to TraceLimit lines (0 = 10000).
	TraceWriter io.Writer `json:"-"`
	TraceLimit  int       `json:"-"`

	// Metrics, when set, receives counters/gauges/histograms from every
	// instrumented layer (VM dispatch, allocators, checks). Telemetry is
	// host-side only: it never alters guest cycle accounting.
	Metrics *telemetry.Registry `json:"-"`

	// Profiler, when set, samples guest execution by cycle budget from
	// the dispatch loop (see vm.GuestProfiler). Host-side only.
	Profiler *vm.GuestProfiler `json:"-"`

	// Flight, when set, is the flight recorder fed by the VM, guest
	// memory, the allocator bindings and the check runtime (dispatch
	// events, deopts with reason, TLB flushes, check failures, budget
	// aborts; at execution grain also retires, trampoline entries,
	// runtime calls, check passes, allocs and frees). At default grain it
	// never disables the superblock tier; execution grain pins the run to
	// the interpreter. The ring's content is guest-deterministic.
	// Host-side only.
	Flight *obs.Flight `json:"-"`
}

// defaultBudget is the cycle budget of a native-speed run whose
// RunConfig leaves MaxCycles at 0.
const defaultBudget = 2_000_000_000

// forensicsDepth bounds the backtraces a Forensics run captures.
const forensicsDepth = 8

// run is the dispatch loop every runner ends in, and newMemory builds
// each run's guest memory. The dispatch identity tests swap in a VM.Step
// loop over memory without the software TLB as the cache-free reference.
var (
	run       = (*vm.VM).Run
	newMemory = mem.New
)

// Process is one run on the shared set-up: a VM and its guest memory
// (VM.Mem) with every knob and host-side observer of the RunConfig
// applied. The runners — RunBaseline, RunHardened, RunLinked and
// memcheck.Run — differ only in the heap they interpose over malloc, the
// bindings they hand each module and, for Memcheck, the DBI hooks they
// install on VM before Exec.
type Process struct {
	VM  *vm.VM
	cfg RunConfig
}

// NewProcess builds the VM and guest memory for a run of mods. budget is
// the cycle budget when cfg.MaxCycles is 0.
func NewProcess(cfg RunConfig, budget uint64, mods ...*relf.Binary) *Process {
	m := newMemory()
	m.Flight = cfg.Flight
	v := vm.New(m)
	v.Input = cfg.Input
	v.MaxCycles = cfg.MaxCycles
	if v.MaxCycles == 0 {
		v.MaxCycles = budget
	}
	v.Abort = cfg.Abort
	v.NoJIT = cfg.NoJIT
	v.JITThreshold = cfg.JITThreshold
	v.Flight = cfg.Flight
	v.Profiler = cfg.Profiler
	v.AttachTelemetry(cfg.Metrics)
	p := &Process{VM: v, cfg: cfg}
	p.attachTrace()
	p.attachIndirect(mods)
	return p
}

// attachTrace installs the execution tracer if configured.
func (p *Process) attachTrace() {
	w := p.cfg.TraceWriter
	if w == nil {
		return
	}
	limit := p.cfg.TraceLimit
	if limit == 0 {
		limit = 10000
	}
	n := 0
	p.VM.TraceHook = func(v *vm.VM, pc uint64, in *isa.Inst) {
		if n >= limit {
			return
		}
		n++
		fmt.Fprintf(w, "%10x: %s\n", pc, in.String())
	}
}

// attachIndirect arms the CET-style landing-pad machinery when every
// module carries the .rf.jt marker: indirect jumps/calls to non-LPAD
// bytes fault (binary semantics, independent of any knob), and the
// static recovery is re-run over the non-PIC modules so the VM can count
// dynamic transfers escaping the recovered target sets (host-side
// telemetry, vm.indirect.escape.count). Mixed marker/legacy module sets
// leave enforcement off, like a legacy DSO disabling process-wide IBT.
func (p *Process) attachIndirect(mods []*relf.Binary) {
	v := p.VM
	for _, b := range mods {
		if !cfg.MarkerBuilt(b) {
			return
		}
	}
	v.LPADCheck = true
	targets := make(map[uint64]map[uint64]bool)
	for _, b := range mods {
		if b.PIC {
			continue // static addresses differ from the load bias
		}
		prog, err := cfg.Disassemble(b)
		if err != nil {
			continue // e.g. partially patched text: monitor stays off
		}
		g := cfg.NewGraph(prog)
		if g.Indirect == nil {
			continue
		}
		for addr, set := range g.Indirect.TargetSets() {
			targets[addr] = set
		}
	}
	if len(targets) > 0 {
		v.IndirectTargets = targets
	}
}

// GlibcHeap builds the baseline glibc-style allocator.
func (p *Process) GlibcHeap() *heap.Heap {
	h := heap.New(p.VM.Mem)
	h.AttachTelemetry(p.cfg.Metrics)
	return h
}

// redFatHeap builds the RedFat heap — the low-fat allocator under the
// redzone wrapper — with the allocator modes applied. The VM supplies the
// deterministic random stream for the under-allocation self-test mode.
func (p *Process) redFatHeap() *redzone.Heap {
	c := &p.cfg
	lf := lowfat.New(p.VM.Mem)
	lf.Randomize = c.RandomizeHeap
	h := redzone.NewHeap(lf, p.VM.Mem)
	switch {
	case c.QuarantineBytes < 0:
		h.QuarantineBytes = 0
	case c.QuarantineBytes > 0:
		h.QuarantineBytes = uint64(c.QuarantineBytes)
	}
	h.Canary = c.Canary
	if c.UnderAllocEvery > 0 {
		h.UnderAllocEvery = c.UnderAllocEvery
		h.Rand = p.VM.NextRand
	}
	h.AttachTelemetry(c.Metrics)
	return h
}

// LibC returns the modelled libc over alloc with the runner's libc
// checking layered on top by checked (nil: none), unless NoLibcCheck.
func (p *Process) LibC(alloc Allocator, checked func(vm.Bindings) vm.Bindings) vm.Bindings {
	b := LibC(alloc, p.VM.Mem)
	if checked != nil && !p.cfg.NoLibcCheck {
		b = checked(b)
	}
	return b
}

// siteTracker is implemented by allocators that can record forensic
// allocation sites (both heaps, and wrappers that forward to one).
type siteTracker interface{ EnableSiteTracking(depth int) }

// Exec parks alloc on the VM (so report builders can resolve faulting
// addresses after the run), arms forensic capture if configured, loads
// libs then main with the bindings env returns for each, and runs the
// program.
func (p *Process) Exec(alloc Allocator, env func(*relf.Binary) (vm.Bindings, error),
	main *relf.Binary, libs ...*relf.Binary) error {
	v := p.VM
	v.Allocator = alloc
	if p.cfg.Forensics {
		v.ErrorStackDepth = forensicsDepth
		if t, ok := alloc.(siteTracker); ok {
			t.EnableSiteTracking(forensicsDepth)
		}
	}
	for _, lib := range libs {
		b, err := env(lib)
		if err != nil {
			return err
		}
		if err := v.LoadLibrary(lib, b); err != nil {
			return err
		}
	}
	b, err := env(main)
	if err != nil {
		return err
	}
	if err := v.Load(main, b); err != nil {
		return err
	}
	return run(v)
}

// RunBaseline executes an uninstrumented binary with the glibc-style
// allocator. Returns the VM after execution (inspect ExitCode, Cycles,
// Output) and the run error, if any. The baseline only records errors
// (an invalid free, say); it never aborts on one.
func RunBaseline(bin *relf.Binary, cfg RunConfig) (*vm.VM, error) {
	cfg.Abort = false
	p := NewProcess(cfg, defaultBudget, bin)
	h := p.GlibcHeap()
	libc := p.LibC(h, nil)
	return p.VM, p.Exec(h, func(*relf.Binary) (vm.Bindings, error) { return libc, nil }, bin)
}

// RunHardened executes a RedFat-hardened binary: the low-fat allocator
// with the redzone wrapper is interposed over malloc (the LD_PRELOAD
// model) and the check routine is bound to the site table. It returns the
// VM and the runtime (for profiling counters and coverage).
func RunHardened(bin *relf.Binary, cfg RunConfig) (*vm.VM, *Runtime, error) {
	v, rts, err := runRedFat(bin, nil, cfg, true)
	if len(rts) == 0 {
		return v, nil, err
	}
	return v, rts[0], err
}

// RunLinked executes a dynamically linked program: the main executable
// plus shared-object dependencies, loaded in order (paper §7.4). Each
// module may or may not have been instrumented by RedFat — only the
// instrumented ones are protected, which is exactly the semantics of
// statically rewriting individual ELF files. The process-wide allocator
// is the RedFat heap (the LD_PRELOAD interposition affects every module).
//
// The returned runtimes parallel the instrumented modules, libraries
// first, main last (if instrumented).
func RunLinked(main *relf.Binary, libs []*relf.Binary, cfg RunConfig) (*vm.VM, []*Runtime, error) {
	return runRedFat(main, libs, cfg, false)
}

// runRedFat runs main after libs on the RedFat heap with the span-checked
// libc, binding a check runtime into every module that carries a site
// table. mainChecked requires main to carry one.
func runRedFat(main *relf.Binary, libs []*relf.Binary, cfg RunConfig, mainChecked bool) (*vm.VM, []*Runtime, error) {
	p := NewProcess(cfg, defaultBudget, append([]*relf.Binary{main}, libs...)...)
	h := p.redFatHeap()
	libc := p.LibC(h, func(b vm.Bindings) vm.Bindings { return Merge(b, SpanLibC(h, p.VM.Mem)) })
	var rts []*Runtime
	mods := make(map[*relf.Binary]*Runtime)
	installInlineChecks(p.VM, mods)
	err := p.Exec(h, func(bin *relf.Binary) (vm.Bindings, error) {
		if bin.Section(SitesSection) == nil && !(mainChecked && bin == main) {
			return libc, nil // uninstrumented module: libc only
		}
		rt, err := NewRuntime(bin, h)
		if err != nil {
			return nil, err
		}
		rt.AttachTelemetry(cfg.Metrics)
		rts = append(rts, rt)
		mods[bin] = rt
		return Merge(libc, rt.Bindings()), nil
	}, main, libs...)
	return p.VM, rts, err
}
