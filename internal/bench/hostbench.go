package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"testing"

	"redfat/internal/mem"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/workload"
)

// Host-side performance benchmarks. Unlike every other experiment in this
// package — which measures deterministic guest cycles — these measure
// host wall-clock: how fast the interpreter dispatches and how well the
// experiment harness scales over the worker pool. Guest results are
// identical across all of these configurations; only elapsed time moves.

// DispatchHostBench measures the interpreter's block-cache dispatch on
// an uninstrumented workload (superblock tier off). The map-icache
// fields of earlier documents are retired with that dispatch path.
type DispatchHostBench struct {
	GuestInsts     uint64  `json:"guest_insts"` // instructions retired per run
	BlockNsPerInst float64 `json:"block_ns_per_inst"`
	BlockMIPS      float64 `json:"block_mips"` // guest MIPS (million insts / wall-second)
}

// MemTLBHostBench compares guest-memory access latency through the
// software TLB against the raw page-map lookup, plus the TLB hit rate
// observed over the dispatch workload.
type MemTLBHostBench struct {
	MapNsPerAccess float64 `json:"map_ns_per_access"` // NoTLB: page-map lookup per access
	TLBNsPerAccess float64 `json:"tlb_ns_per_access"`
	Speedup        float64 `json:"speedup"`  // map / TLB latency ratio
	HitRate        float64 `json:"hit_rate"` // TLB hits / probes over the workload run
}

// BlockChainHostBench isolates the block-chaining layer: the block cache
// with chaining disabled (every block exit walks the per-page tables) vs
// chaining enabled (steady-state exits follow cached successor pointers).
type BlockChainHostBench struct {
	NoChainNsPerInst float64 `json:"nochain_ns_per_inst"`
	ChainNsPerInst   float64 `json:"chain_ns_per_inst"`
	NoChainMIPS      float64 `json:"nochain_mips"`
	ChainMIPS        float64 `json:"chain_mips"`
	Improvement      float64 `json:"improvement"`    // fractional dispatch-time reduction
	ChainHitRate     float64 `json:"chain_hit_rate"` // chained / all block exits
}

// VMJITHostBench isolates the superblock tier: the chained block
// interpreter with the tier disabled vs hot traces compiled into fused
// Go closures, plus the tier's activity over one instrumented run.
type VMJITHostBench struct {
	NoJITNsPerInst float64 `json:"nojit_ns_per_inst"`
	JITNsPerInst   float64 `json:"jit_ns_per_inst"`
	NoJITMIPS      float64 `json:"nojit_mips"`
	JITMIPS        float64 `json:"jit_mips"`
	Improvement    float64 `json:"improvement"`    // fractional dispatch-time reduction
	Compiled       uint64  `json:"compiled"`       // traces compiled over the run
	Deopts         uint64  `json:"deopts"`         // side/fault exits back to the interpreter
	CompiledShare  float64 `json:"compiled_share"` // insts retired in compiled code / all
}

// LibcSpanTwinBench is one loop/intrinsic twin pair under full hardening:
// the same byte traffic checked per access (guest loop) vs once per libc
// call (span-checked intrinsic). Guest cycles are deterministic — the
// cycle ratio is the modelled libredfat win; the wall-clock columns show
// the host-side effect of retiring fewer guest instructions.
type LibcSpanTwinBench struct {
	Name        string  `json:"name"`
	LoopCycles  uint64  `json:"loop_cycles"`
	IntrCycles  uint64  `json:"intr_cycles"`
	CycleRatio  float64 `json:"cycle_ratio"` // loop / intrinsic guest cycles
	LoopNs      int64   `json:"loop_ns"`
	IntrNs      int64   `json:"intr_ns"`
	WallSpeedup float64 `json:"wall_speedup"`
	SpanChecks  uint64  `json:"span_checks"` // vm.libc.span.check.count, intrinsic run
}

// IndirectHostBench records what the indirect-flow recovery buys on the
// switch-dense interpreter workload: recovered-edge claims, the
// dominated-check eliminations those edges unlock (recovery-on minus
// recovery-off under -elimdom), and the deterministic guest-cycle win.
type IndirectHostBench struct {
	Benchmark    string  `json:"benchmark"`
	Resolved     int     `json:"resolved"`              // recovered indirect-flow claims
	ElimNoInd    int     `json:"elim_dominated_noind"`  // dominated checks removed, recovery off
	ElimInd      int     `json:"elim_dominated_ind"`    // dominated checks removed, recovery on
	UnlockedElim int     `json:"unlocked_eliminations"` // ElimInd - ElimNoInd
	NoIndCycles  uint64  `json:"noind_cycles"`
	IndCycles    uint64  `json:"ind_cycles"`
	CycleRatio   float64 `json:"cycle_ratio"` // noind / ind guest cycles
}

// Table1HostBench compares serial and parallel wall-clock for the Table 1
// pipeline at a reduced scale.
type Table1HostBench struct {
	Scale      float64 `json:"scale"`
	Parallel   int     `json:"parallel"`
	SerialNs   int64   `json:"serial_ns"`
	ParallelNs int64   `json:"parallel_ns"`
	Speedup    float64 `json:"speedup"`
}

// HostBenchResult is the machine-readable output of RunHostBench
// (exported by rfbench -hostbench to results/BENCH_host.json).
type HostBenchResult struct {
	GOOS       string              `json:"goos"`
	GOARCH     string              `json:"goarch"`
	GoVersion  string              `json:"go_version"`
	NumCPU     int                 `json:"num_cpu"`
	Dispatch   DispatchHostBench   `json:"vm_dispatch"`
	MemTLB     MemTLBHostBench     `json:"mem_tlb"`
	BlockChain BlockChainHostBench `json:"block_chain"`
	VMJIT      VMJITHostBench      `json:"vm_jit"`
	LibcSpan   []LibcSpanTwinBench `json:"libc_span"`
	Indirect   IndirectHostBench   `json:"indirect"`
	Table1     Table1HostBench     `json:"table1_parallel"`
}

// RunHostBench measures every host-side section: VM dispatch, the TLB,
// block chaining, the superblock tier, the libc span twins, indirect-flow
// recovery, and Table 1 harness scaling (serial vs parallel pool).
func RunHostBench(parallel int, scale float64) (*HostBenchResult, error) {
	res := &HostBenchResult{
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		GoVersion: runtime.Version(),
		NumCPU:    runtime.NumCPU(),
	}
	bin, input, err := dispatchWorkload()
	if err != nil {
		return nil, err
	}
	if err := res.measureDispatch(bin, input); err != nil {
		return nil, err
	}
	if err := res.measureBlockChain(bin, input); err != nil {
		return nil, err
	}
	if err := res.measureMemTLB(bin, input); err != nil {
		return nil, err
	}
	if err := res.measureVMJIT(bin, input); err != nil {
		return nil, err
	}
	if err := res.measureLibcSpan(); err != nil {
		return nil, err
	}
	if err := res.measureIndirect(); err != nil {
		return nil, err
	}
	if err := res.measureTable1(parallel, scale); err != nil {
		return nil, err
	}
	return res, nil
}

// dispatchWorkload builds the shared workload binary (bzip2 at a reduced
// reference scale) used by the dispatch, chaining and TLB measurements.
func dispatchWorkload() (*relf.Binary, []uint64, error) {
	bm := workload.ByName("bzip2")
	cp := *bm
	cp.RefScale = 20000
	bin, err := cp.Build()
	if err != nil {
		return nil, nil, err
	}
	return bin, cp.RefInput(), nil
}

// measureConfig times repeated runs of the workload under one knob setting.
func measureConfig(bin *relf.Binary, input []uint64, knobs rtlib.Knobs, runErr *error) testing.BenchmarkResult {
	return testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input, Knobs: knobs}); err != nil {
				*runErr = err
				return
			}
		}
	})
}

func (r *HostBenchResult) measureDispatch(bin *relf.Binary, input []uint64) error {
	probe, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input})
	if err != nil {
		return err
	}
	insts := probe.Insts

	// NoJIT: this section measures block dispatch, not the superblock tier.
	var runErr error
	blockRes := measureConfig(bin, input, rtlib.Knobs{NoJIT: true}, &runErr)
	if runErr != nil {
		return runErr
	}

	r.Dispatch = DispatchHostBench{
		GuestInsts:     insts,
		BlockNsPerInst: float64(blockRes.NsPerOp()) / float64(insts),
		BlockMIPS:      mips(insts, blockRes.NsPerOp()),
	}
	return nil
}

// measureBlockChain isolates chaining: block cache with vs without the
// successor links, plus the chain hit rate over one instrumented run.
func (r *HostBenchResult) measureBlockChain(bin *relf.Binary, input []uint64) error {
	// NoJIT on both sides (and on the hit-rate probe): this section
	// isolates the chaining layer; with traces enabled most block exits
	// never reach the chain lookup at all.
	var runErr error
	noChain := measureConfig(bin, input, rtlib.Knobs{NoChain: true, NoJIT: true}, &runErr)
	chain := measureConfig(bin, input, rtlib.Knobs{NoJIT: true}, &runErr)
	if runErr != nil {
		return runErr
	}

	reg := telemetry.New()
	if _, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input, Metrics: reg, Knobs: rtlib.Knobs{NoJIT: true}}); err != nil {
		return err
	}
	snap := reg.Snapshot()
	hits := snap.Counters["vm.icache.chain.hits"]
	misses := snap.Counters["vm.icache.chain.misses"]

	insts := r.Dispatch.GuestInsts
	r.BlockChain = BlockChainHostBench{
		NoChainNsPerInst: float64(noChain.NsPerOp()) / float64(insts),
		ChainNsPerInst:   float64(chain.NsPerOp()) / float64(insts),
		NoChainMIPS:      mips(insts, noChain.NsPerOp()),
		ChainMIPS:        mips(insts, chain.NsPerOp()),
	}
	if noChain.NsPerOp() > 0 {
		r.BlockChain.Improvement = 1 - float64(chain.NsPerOp())/float64(noChain.NsPerOp())
	}
	if total := hits + misses; total > 0 {
		r.BlockChain.ChainHitRate = float64(hits) / float64(total)
	}
	return nil
}

// measureMemTLB times raw guest loads over a multi-page working set with
// the TLB on vs off, and reports the TLB hit rate of a full workload run.
func (r *HostBenchResult) measureMemTLB(bin *relf.Binary, input []uint64) error {
	const (
		base     = uint64(0x10000)
		pages    = 16
		accesses = 4096
		stride   = 64
	)
	nsPerAccess := func(noTLB bool) (float64, error) {
		m := mem.New()
		m.NoTLB = noTLB
		m.Map(base, pages*mem.PageSize, mem.PermRW)
		var loadErr error
		res := testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				addr := base
				for j := 0; j < accesses; j++ {
					if _, err := m.Load(addr, 8); err != nil {
						loadErr = err
						return
					}
					addr += stride
					if addr >= base+pages*mem.PageSize {
						addr = base
					}
				}
			}
		})
		return float64(res.NsPerOp()) / accesses, loadErr
	}
	mapNs, err := nsPerAccess(true)
	if err != nil {
		return err
	}
	tlbNs, err := nsPerAccess(false)
	if err != nil {
		return err
	}

	probe, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input})
	if err != nil {
		return err
	}

	r.MemTLB = MemTLBHostBench{
		MapNsPerAccess: mapNs,
		TLBNsPerAccess: tlbNs,
		HitRate:        probe.Mem.TLB().HitRate(),
	}
	if tlbNs > 0 {
		r.MemTLB.Speedup = mapNs / tlbNs
	}
	return nil
}

// measureVMJIT isolates the superblock tier: the full fast path (block
// cache + chaining + traces) against the same path with the tier
// disabled, plus compile/deopt activity from one instrumented run.
func (r *HostBenchResult) measureVMJIT(bin *relf.Binary, input []uint64) error {
	var runErr error
	nojit := measureConfig(bin, input, rtlib.Knobs{NoJIT: true}, &runErr)
	jit := measureConfig(bin, input, rtlib.Knobs{}, &runErr)
	if runErr != nil {
		return runErr
	}

	reg := telemetry.New()
	if _, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input, Metrics: reg}); err != nil {
		return err
	}
	snap := reg.Snapshot()

	insts := r.Dispatch.GuestInsts
	r.VMJIT = VMJITHostBench{
		NoJITNsPerInst: float64(nojit.NsPerOp()) / float64(insts),
		JITNsPerInst:   float64(jit.NsPerOp()) / float64(insts),
		NoJITMIPS:      mips(insts, nojit.NsPerOp()),
		JITMIPS:        mips(insts, jit.NsPerOp()),
		Compiled:       snap.Counters["vm.jit.compile.count"],
		Deopts:         snap.Counters["vm.jit.deopt.count"],
	}
	if nojit.NsPerOp() > 0 {
		r.VMJIT.Improvement = 1 - float64(jit.NsPerOp())/float64(nojit.NsPerOp())
	}
	if insts > 0 {
		r.VMJIT.CompiledShare = float64(snap.Counters["vm.jit.exec.insts"]) / float64(insts)
	}
	return nil
}

// measureLibcSpan runs the libc twin pairs under full hardening and
// records cycle ratios (deterministic) and wall-clock (informational).
// The exit checksums of each pair are asserted equal — the twins do the
// same work, or the comparison is meaningless.
func (r *HostBenchResult) measureLibcSpan() error {
	hardened := func(bm *workload.Benchmark) (*relf.Binary, []uint64, error) {
		bin, err := bm.Build()
		if err != nil {
			return nil, nil, err
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			return nil, nil, err
		}
		return hard, bm.RefInput(), nil
	}
	timeHardened := func(bin *relf.Binary, input []uint64, runErr *error) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, _, err := rtlib.RunHardened(bin, rtlib.RunConfig{Input: input}); err != nil {
					*runErr = err
					return
				}
			}
		})
	}
	for _, tw := range workload.LibcTwins() {
		loopBin, loopIn, err := hardened(tw.Loop)
		if err != nil {
			return err
		}
		intrBin, intrIn, err := hardened(tw.Intr)
		if err != nil {
			return err
		}
		lv, _, err := rtlib.RunHardened(loopBin, rtlib.RunConfig{Input: loopIn})
		if err != nil {
			return err
		}
		reg := telemetry.New()
		iv, _, err := rtlib.RunHardened(intrBin, rtlib.RunConfig{Input: intrIn, Metrics: reg})
		if err != nil {
			return err
		}
		if lv.ExitCode != iv.ExitCode {
			return fmt.Errorf("libc_span %s: twin checksums differ: loop %d, intrinsic %d",
				tw.Name, lv.ExitCode, iv.ExitCode)
		}
		if len(lv.Errors) != 0 || len(iv.Errors) != 0 {
			return fmt.Errorf("libc_span %s: twin run reported memory errors", tw.Name)
		}
		var runErr error
		loopRes := timeHardened(loopBin, loopIn, &runErr)
		intrRes := timeHardened(intrBin, intrIn, &runErr)
		if runErr != nil {
			return runErr
		}
		row := LibcSpanTwinBench{
			Name:       tw.Name,
			LoopCycles: lv.Cycles,
			IntrCycles: iv.Cycles,
			LoopNs:     loopRes.NsPerOp(),
			IntrNs:     intrRes.NsPerOp(),
			SpanChecks: reg.Snapshot().Counters["vm.libc.span.check.count"],
		}
		if iv.Cycles > 0 {
			row.CycleRatio = float64(lv.Cycles) / float64(iv.Cycles)
		}
		if intrRes.NsPerOp() > 0 {
			row.WallSpeedup = float64(loopRes.NsPerOp()) / float64(intrRes.NsPerOp())
		}
		r.LibcSpan = append(r.LibcSpan, row)
	}
	return nil
}

// measureIndirect hardens the switch-dense interpreter with and without
// the indirect-flow recovery (dominator elimination on in both) and
// records the recovered claims, unlocked eliminations, and guest-cycle
// ratio. Both runs' exit checksums are asserted equal — the recovery
// must never change guest results.
func (r *HostBenchResult) measureIndirect() error {
	bm := workload.ByName("interp")
	if bm == nil {
		return fmt.Errorf("hostbench: switch-dense benchmark %q missing", "interp")
	}
	cp := *bm
	cp.RefScale = 6000
	bin, err := cp.Build()
	if err != nil {
		return err
	}
	type side struct {
		cycles uint64
		exit   uint64
		elim   int
		res    int
	}
	measure := func(noInd bool) (side, error) {
		opt := redfat.Defaults()
		opt.NoIndirect = noInd
		hard, rep, err := redfat.Harden(bin, opt)
		if err != nil {
			return side{}, err
		}
		v, _, err := rtlib.RunHardened(hard,
			rtlib.RunConfig{Input: cp.RefInput(), Knobs: rtlib.Knobs{NoIndirect: noInd}})
		if err != nil {
			return side{}, err
		}
		return side{cycles: v.Cycles, exit: v.ExitCode,
			elim: rep.ElimDominated, res: rep.IndirectResolved}, nil
	}
	noind, err := measure(true)
	if err != nil {
		return err
	}
	ind, err := measure(false)
	if err != nil {
		return err
	}
	if noind.exit != ind.exit {
		return fmt.Errorf("hostbench: indirect recovery changed the guest checksum: %#x vs %#x",
			noind.exit, ind.exit)
	}
	r.Indirect = IndirectHostBench{
		Benchmark:    cp.Name,
		Resolved:     ind.res,
		ElimNoInd:    noind.elim,
		ElimInd:      ind.elim,
		UnlockedElim: ind.elim - noind.elim,
		NoIndCycles:  noind.cycles,
		IndCycles:    ind.cycles,
	}
	if ind.cycles > 0 {
		r.Indirect.CycleRatio = float64(noind.cycles) / float64(ind.cycles)
	}
	return nil
}

func (r *HostBenchResult) measureTable1(parallel int, scale float64) error {
	var runErr error
	measure := func(width int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			h := &Harness{Parallel: width}
			for i := 0; i < b.N; i++ {
				if _, err := h.Table1(scale, nil); err != nil {
					runErr = err
					return
				}
			}
		})
	}
	serial := measure(1)
	par := measure(parallel)
	if runErr != nil {
		return runErr
	}
	r.Table1 = Table1HostBench{
		Scale:      scale,
		Parallel:   parallel,
		SerialNs:   serial.NsPerOp(),
		ParallelNs: par.NsPerOp(),
	}
	if par.NsPerOp() > 0 {
		r.Table1.Speedup = float64(serial.NsPerOp()) / float64(par.NsPerOp())
	}
	return nil
}

// mips converts (instructions, ns per run) to guest MIPS.
func mips(insts uint64, nsPerOp int64) float64 {
	if nsPerOp <= 0 {
		return 0
	}
	return float64(insts) * 1e3 / float64(nsPerOp)
}

// WriteJSON serializes the result, indented, to w.
func (r *HostBenchResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Render writes a human-readable summary to w (nil ok).
func (r *HostBenchResult) Render(w io.Writer) {
	if w == nil {
		return
	}
	fmt.Fprintf(w, "host: %s/%s, %d CPUs, %s\n", r.GOOS, r.GOARCH, r.NumCPU, r.GoVersion)
	fmt.Fprintf(w, "vm dispatch (%d guest insts):\n", r.Dispatch.GuestInsts)
	fmt.Fprintf(w, "  block cache   %7.1f ns/inst  %7.1f guest MIPS\n",
		r.Dispatch.BlockNsPerInst, r.Dispatch.BlockMIPS)
	fmt.Fprintf(w, "mem tlb (%.1f%% hit rate on workload):\n", 100*r.MemTLB.HitRate)
	fmt.Fprintf(w, "  page map      %7.2f ns/access\n", r.MemTLB.MapNsPerAccess)
	fmt.Fprintf(w, "  tlb           %7.2f ns/access  (%.2fx faster)\n",
		r.MemTLB.TLBNsPerAccess, r.MemTLB.Speedup)
	fmt.Fprintf(w, "block chaining (%.1f%% chain hit rate):\n", 100*r.BlockChain.ChainHitRate)
	fmt.Fprintf(w, "  no chain      %7.1f ns/inst  %7.1f guest MIPS\n",
		r.BlockChain.NoChainNsPerInst, r.BlockChain.NoChainMIPS)
	fmt.Fprintf(w, "  chained       %7.1f ns/inst  %7.1f guest MIPS  (%.1f%% faster)\n",
		r.BlockChain.ChainNsPerInst, r.BlockChain.ChainMIPS, 100*r.BlockChain.Improvement)
	fmt.Fprintf(w, "superblock tier (%d traces, %.1f%% of insts compiled, %d deopts):\n",
		r.VMJIT.Compiled, 100*r.VMJIT.CompiledShare, r.VMJIT.Deopts)
	fmt.Fprintf(w, "  interpreter   %7.1f ns/inst  %7.1f guest MIPS\n",
		r.VMJIT.NoJITNsPerInst, r.VMJIT.NoJITMIPS)
	fmt.Fprintf(w, "  compiled      %7.1f ns/inst  %7.1f guest MIPS  (%.1f%% faster)\n",
		r.VMJIT.JITNsPerInst, r.VMJIT.JITMIPS, 100*r.VMJIT.Improvement)
	for _, tw := range r.LibcSpan {
		fmt.Fprintf(w, "libc span twin %s (%d span checks):\n", tw.Name, tw.SpanChecks)
		fmt.Fprintf(w, "  checked loop  %12d cycles %10d ns\n", tw.LoopCycles, tw.LoopNs)
		fmt.Fprintf(w, "  intrinsic     %12d cycles %10d ns  (%.1fx cycles, %.1fx wall)\n",
			tw.IntrCycles, tw.IntrNs, tw.CycleRatio, tw.WallSpeedup)
	}
	fmt.Fprintf(w, "indirect recovery (%s, %d resolved claims):\n",
		r.Indirect.Benchmark, r.Indirect.Resolved)
	fmt.Fprintf(w, "  recovery off  %12d cycles  %6d dominated checks eliminated\n",
		r.Indirect.NoIndCycles, r.Indirect.ElimNoInd)
	fmt.Fprintf(w, "  recovery on   %12d cycles  %6d dominated checks eliminated  (+%d unlocked, %.2fx cycles)\n",
		r.Indirect.IndCycles, r.Indirect.ElimInd, r.Indirect.UnlockedElim, r.Indirect.CycleRatio)
	fmt.Fprintf(w, "table1 (scale %.2f):\n", r.Table1.Scale)
	fmt.Fprintf(w, "  serial        %12d ns\n", r.Table1.SerialNs)
	fmt.Fprintf(w, "  parallel %-4d %12d ns  (%.2fx speedup)\n",
		r.Table1.Parallel, r.Table1.ParallelNs, r.Table1.Speedup)
}
