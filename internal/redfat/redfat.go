// Package redfat implements the paper's primary contribution: the RedFat
// binary-hardening instrumentation.
//
// Given a RELF binary (stripped or not, PIC or not), Harden produces a
// drop-in replacement binary in which memory accesses are protected by the
// complementary (Redzone)+(LowFat) check of paper Fig. 4, inserted through
// E9Patch-style trampoline rewriting, with the paper's three optimizations:
// check elimination, check batching and check merging (§6), and the
// profile-based allow-list policy for false-positive avoidance (§5).
package redfat

import (
	"fmt"

	"redfat/internal/cfg"
	"redfat/internal/e9"
	"redfat/internal/isa"
	"redfat/internal/lowfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// Options selects the instrumentation configuration. The zero value is a
// valid conservative configuration (redzone-only, unoptimized, read+write
// checking); use Defaults() for the fully optimized production defaults.
//
// Options is also the hardening record of a runpack manifest (the
// runpack KnobSpec embeds it): the JSON tags are the manifest keys, in
// manifest order. The allow-list itself is a pack member, not a key.
type Options struct {
	// LowFat enables the combined (Redzone)+(LowFat) check. Sites not in
	// the allow-list (when one is given) fall back to redzone-only.
	LowFat bool `json:"lowfat"`

	// CheckReads instruments read accesses as well as writes. Disabling
	// it is the paper's -reads configuration (write-only protection).
	CheckReads bool `json:"check_reads"`

	// SizeCheck enables metadata hardening (validating the stored SIZE
	// against the immutable low-fat slot size). Disabling it is the
	// paper's -size configuration.
	SizeCheck bool `json:"size_check"`

	// Elim, Batch, Merge enable the three optimizations of paper §6.
	Elim  bool `json:"elim"`
	Batch bool `json:"batch"`
	Merge bool `json:"merge"`

	// ElimDom enables dominator-based redundant-check elimination on
	// top of the syntactic Elim rule: a checked operand whose address
	// shape (segment/base/index/scale), mode and displacement span are
	// already covered by a check that dominates it — with the address
	// registers unredefined and no call in between — is dropped; the
	// dominating check subsumes it. Ignored in Profile mode, where
	// per-site execution statistics must stay complete.
	ElimDom bool `json:"elim_dom"`

	// LocalLiveness restricts the dead-register/dead-flags trampoline
	// specialization to the legacy block-local scans instead of the
	// whole-CFG liveness solution. Exposed for ablation measurements;
	// the block-local answer is never more precise.
	LocalLiveness bool `json:"local_liveness,omitempty"`

	// NoClobberSpec disables the dead-register trampoline
	// specialization (paper §6, "Additional low-level optimizations"):
	// every trampoline then saves the full scratch set and flags.
	// Exposed for ablation measurements.
	NoClobberSpec bool `json:"no_clobber_spec,omitempty"`

	// Profile builds the profiling binary of paper Fig. 5 step 1:
	// every site uses the profiling check variant and never aborts.
	Profile bool `json:"profile,omitempty"`

	// MaxBatch bounds the number of accesses per trampoline (0 = 8).
	MaxBatch int `json:"max_batch"`

	// AllowList restricts full checking to the given instruction
	// addresses (from the profiling phase). Nil means "all sites" —
	// the configuration the paper evaluates for false positives.
	AllowList map[uint64]bool `json:"-"`

	// NoIndirect disables indirect-flow recovery (jump-table resolution,
	// landing-pad target sets, RET/call-site pairing) in the dataflow
	// engine: indirect control flow stays ⊤ as in the seed analysis.
	// Only observable on marker-built inputs (those carrying .rf.jt);
	// exposed for ablation measurements.
	NoIndirect bool `json:"no_indirect,omitempty"`
}

// Defaults returns the fully optimized production configuration
// (the paper's "+merge" column).
func Defaults() Options {
	return Options{
		LowFat:     true,
		CheckReads: true,
		SizeCheck:  true,
		Elim:       true,
		Batch:      true,
		Merge:      true,
		ElimDom:    true,
	}
}

// Report summarizes an instrumentation run. The operand counters count
// the fates site selection gave the memory operands, so SkippedReads +
// Eliminated + ElimDominated + Instrumented + FailedSites = Operands.
type Report struct {
	Operands      int // memory operands considered
	Eliminated    int // removed by (syntactic) check elimination
	ElimDominated int // removed as redundant under a dominating check
	SkippedReads  int // skipped because CheckReads is off
	Instrumented  int // operands covered by an emitted check record
	Checks        int // emitted check records (after merging)
	Batches       int // trampolines
	MergedAway    int // checks saved by merging
	FullChecks    int // checks with the combined lowfat+redzone mode
	Rewrite       e9.Stats
	FailedSites   int // operands whose patch failed (left unprotected)

	// Liveness-driven trampoline specialization totals: registers the
	// emitted trampolines save (sum over trampolines) and how many of
	// them must preserve the flags.
	LiveRegsSaved  int
	LiveFlagsSaved int

	// Indirect-flow recovery outcome on marker-built inputs: resolved
	// indirect jump sites (table or landing-pad-set) and paired RETs.
	IndirectResolved int
	IndirectRets     int
}

// Publish exports the instrumentation report as counters in reg (no-op
// when reg is nil), including the embedded rewriting statistics.
func (r *Report) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("harden.operands").Add(uint64(r.Operands))
	reg.Counter("harden.eliminated").Add(uint64(r.Eliminated))
	reg.Counter("harden.reads.skipped").Add(uint64(r.SkippedReads))
	reg.Counter("harden.instrumented").Add(uint64(r.Instrumented))
	reg.Counter("harden.checks").Add(uint64(r.Checks))
	reg.Counter("harden.batches").Add(uint64(r.Batches))
	reg.Counter("harden.merged.away").Add(uint64(r.MergedAway))
	reg.Counter("harden.checks.full").Add(uint64(r.FullChecks))
	reg.Counter("harden.sites.failed").Add(uint64(r.FailedSites))
	reg.Counter("harden.elim.dom").Add(uint64(r.ElimDominated))
	reg.Counter("harden.liveness.regs").Add(uint64(r.LiveRegsSaved))
	reg.Counter("harden.liveness.flags").Add(uint64(r.LiveFlagsSaved))
	reg.Counter("harden.indirect.resolved").Add(uint64(r.IndirectResolved))
	reg.Counter("harden.indirect.rets").Add(uint64(r.IndirectRets))
	r.Rewrite.Publish(reg)
}

// String renders a human-readable summary.
func (r *Report) String() string {
	return fmt.Sprintf(
		"operands %d (eliminated %d, reads skipped %d) → checks %d in %d trampolines "+
			"(merged away %d, full %d) tactics T1=%d T2=%d T3=%d tramp=%dB",
		r.Operands, r.Eliminated, r.SkippedReads, r.Checks, r.Batches,
		r.MergedAway, r.FullChecks,
		r.Rewrite.T1, r.Rewrite.T2, r.Rewrite.T3, r.Rewrite.TrampBytes)
}

// Eliminable implements check elimination (paper §6): a memory operand
// that provably cannot reach low-fat heap memory needs no check. The rule:
// no index register, and either no base register (with an absolute
// displacement outside the heap range), or a base register that is %rip
// or %rsp (code and stack are ≫2 GB away from the heap regions under the
// standard layout).
func Eliminable(m isa.Mem) bool {
	if m.Index != isa.RegNone {
		return false
	}
	switch m.Base {
	case isa.RegNone:
		addr := uint64(int64(m.Disp))
		return addr < lowfat.HeapLow || addr >= lowfat.HeapHigh
	case isa.RIP, isa.RSP:
		// ±2 GB displacement from text/stack cannot reach the heap.
		return true
	}
	return false
}

// fate is what site selection decided for one instruction. Harden gives
// every instruction exactly one; its Report and Analyze only count them.
type fate uint8

const (
	notOperand    fate = iota // no memory operand
	readSkipped               // a read, and CheckReads is off
	elimSyntactic             // Eliminable: cannot reach the heap
	elimDominated             // covered by a dominating check (ElimDom)
	checked                   // covered by a check record of its batch
	unprotected               // its patch failed; listed in .rf.unprot
)

// rewriting is one run of Harden's pipeline over a clone of its input.
type rewriting struct {
	prog  *cfg.Program  // the clone's; Insts were decoded before patching
	df    *cfg.Dataflow // built before patching; nil when nothing needed it
	fates []fate        // per prog.Insts index
	hard  *relf.Binary
	rep   *Report
}

// Harden instruments bin according to opt, returning the hardened binary
// and a report. The input binary is not modified. Hardening an
// already-hardened binary is rejected (double instrumentation would
// install checks on trampoline code and re-patch patched sites).
func Harden(bin *relf.Binary, opt Options) (*relf.Binary, *Report, error) {
	r, err := rewrite(bin, opt, false)
	if err != nil {
		return nil, nil, err
	}
	return r.hard, r.rep, nil
}

// rewrite decides each instruction's fate, emits the checks and patches
// their batches. withDataflow builds the whole-CFG engine even when no
// pass needs it, for Analyze to report on.
func rewrite(bin *relf.Binary, opt Options, withDataflow bool) (rewriting, error) {
	if bin.Section(rtlib.SitesSection) != nil {
		return rewriting{}, fmt.Errorf("redfat: binary is already instrumented")
	}
	if opt.MaxBatch == 0 {
		opt.MaxBatch = 8
	}
	rw, err := e9.New(bin)
	if err != nil {
		return rewriting{}, err
	}
	prog := rw.Prog
	rep := &Report{}
	elimDom := opt.ElimDom && !opt.Profile

	// Whole-CFG dataflow engine: needed for dominator-based check
	// elimination and for the global liveness trampoline specialization.
	// It reads the clone's text and data, so it is built before patching.
	var df *cfg.Dataflow
	if withDataflow || elimDom || (!opt.NoClobberSpec && !opt.LocalLiveness) {
		df = cfg.NewDataflowOpts(prog, cfg.GraphOptions{NoIndirect: opt.NoIndirect})
		if ind := df.Graph.Indirect; ind != nil {
			for _, r := range ind.Resolved {
				if r.Kind == cfg.ResolvedRet {
					rep.IndirectRets++
				} else {
					rep.IndirectResolved++
				}
			}
		}
	}

	// Pass A: each memory operand is skipped, eliminated or checked.
	fates := make([]fate, len(prog.Insts))
	for i := range prog.Insts {
		in := &prog.Insts[i].Inst
		switch {
		case !in.IsMemAccess():
		case !opt.CheckReads && !in.Writes():
			fates[i] = readSkipped
		case opt.Elim && Eliminable(in.Mem):
			fates[i] = elimSyntactic
		default:
			fates[i] = checked
		}
	}

	// Pass A': dominator-based redundant-check elimination. A site whose
	// address shape, mode and span are covered by an available dominating
	// check is dropped; its witness (the provider) protects it. Skipped in
	// Profile mode (per-site execution statistics must stay complete). In
	// an aborting run the guest-visible detections are identical: the
	// provider executes first on every path and fails on a superset of
	// the dropped check's failures.
	var witness map[int]int
	if elimDom {
		var cands []cfg.CheckSite
		for i, f := range fates {
			di := &prog.Insts[i]
			if f != checked || di.Inst.Mem.Base == isa.RIP {
				continue // PC-relative shapes never repeat
			}
			lo := int64(di.Inst.Mem.Disp)
			cands = append(cands, cfg.CheckSite{
				Inst: i, Mode: uint8(opt.modeAt(di.Addr)),
				Lo: lo, Hi: lo + int64(di.Inst.MemWidth()),
			})
		}
		witness = df.Redundant(cands)
		for i := range witness {
			fates[i] = elimDominated
		}
	}

	// Pass B: group the checked operands into batches (of one each
	// without batching).
	maxBatch := opt.MaxBatch
	if !opt.Batch {
		maxBatch = 1
	}
	batches := prog.Batches(func(i int) bool { return fates[i] == checked }, maxBatch)

	// Reserve all batch heads so byte stealing never swallows one.
	for _, b := range batches {
		rw.Reserve(prog.Insts[b.Members[0]].Addr)
	}

	checkIdx := rw.Binary().ImportIndex(rtlib.CheckImport)
	var checks []rtlib.Check

	// clobberSpec computes the trampoline prologue requirements at a
	// batch head from the selected liveness analysis.
	clobberSpec := func(head int) (savedRegs int, saveFlags bool) {
		var dead cfg.RegSet
		flagsDead := false
		switch {
		case opt.NoClobberSpec:
		case df != nil && !opt.LocalLiveness:
			dead, flagsDead = df.DeadRegsAt(head), df.FlagsDeadAt(head)
		default:
			dead, flagsDead = prog.DeadRegsAt(head), prog.FlagsDeadAt(head)
		}
		return max(4-dead.Count(), 0), !flagsDead
	}

	// instrument patches one batch head and, once the patch is written,
	// records the batch's checks (merged within the batch).
	instrument := func(members []int) error {
		head := members[0]
		savedRegs, saveFlags := clobberSpec(head)
		groups := mergeGroups(prog, members, opt)
		payload := make([]isa.Inst, len(groups))
		for gi := range groups {
			payload[gi] = isa.Inst{
				Op: isa.RTCALL, Form: isa.FI,
				Imm: vm.RTCallImm(checkIdx, uint32(len(checks)+gi)),
			}
		}
		if err := rw.Instrument(head, payload); err != nil {
			return err
		}
		for gi, g := range groups {
			c := buildCheck(prog, g, opt)
			c.Leader = gi == 0
			c.SavedRegs = uint8(savedRegs)
			c.SaveFlags = saveFlags
			checks = append(checks, c)
		}
		rep.Batches++
		rep.LiveRegsSaved += savedRegs
		if saveFlags {
			rep.LiveFlagsSaved++
		}
		return nil
	}

	// Pass C: patch every batch. A batch that fails to patch is left
	// unprotected rather than failing the whole rewrite.
	for _, b := range batches {
		if instrument(b.Members) != nil {
			for _, m := range b.Members {
				fates[m] = unprotected
			}
		}
	}

	// Repair round: a site eliminated under a dominating check whose
	// batch failed to patch would be silently unprotected. Re-instrument
	// such dependents individually (their own bytes were never reserved,
	// so this is best-effort). Witnesses are never dominated themselves
	// (RedundantChecks resolves chains to their root), so this scan
	// changes no witness's fate.
	for i, f := range fates {
		if f == elimDominated && fates[witness[i]] == unprotected {
			fates[i] = checked
			if instrument([]int{i}) != nil {
				fates[i] = unprotected
			}
		}
	}

	hard, err := rw.Finalize()
	if err != nil {
		return rewriting{}, err
	}
	hard.AddSection(&relf.Section{
		Name: rtlib.SitesSection, Kind: relf.SecMeta,
		Data: rtlib.EncodeSites(checks),
	})
	hard.AddSection(&relf.Section{
		Name: ConfigSection, Kind: relf.SecMeta,
		Data: EncodeConfig(opt),
	})

	// The report counts the final fates and the records written.
	var n [unprotected + 1]int
	unprot := make(map[uint64]uint64)
	for i, f := range fates {
		n[f]++
		if f == unprotected {
			unprot[prog.Insts[i].Addr] = 0
		}
	}
	if len(unprot) > 0 {
		hard.AddSection(&relf.Section{
			Name: UnprotSection, Kind: relf.SecMeta,
			Data: relf.EncodePatchTable(unprot),
		})
	}
	rep.Operands = len(fates) - n[notOperand]
	rep.SkippedReads = n[readSkipped]
	rep.Eliminated = n[elimSyntactic]
	rep.ElimDominated = n[elimDominated]
	rep.Instrumented = n[checked]
	rep.FailedSites = n[unprotected]
	rep.Checks = len(checks)
	for _, c := range checks {
		if c.Mode == rtlib.ModeFull {
			rep.FullChecks++
		}
		rep.MergedAway += int(c.Merged) - 1
	}
	rep.Rewrite = rw.Stats()
	return rewriting{prog: prog, df: df, fates: fates, hard: hard, rep: rep}, nil
}

// modeAt returns the check mode of an operand at addr.
func (opt Options) modeAt(addr uint64) rtlib.Mode {
	switch {
	case opt.Profile:
		return rtlib.ModeProfile
	case opt.LowFat && (opt.AllowList == nil || opt.AllowList[addr]):
		return rtlib.ModeFull
	}
	return rtlib.ModeRedzone
}

// mergeGroups partitions batch members into mergeable groups, preserving
// program order of group leaders: operands of one address shape and
// check mode (one cfg.CheckKey) merge (paper §6, "Check merging").
// RIP-relative displacements are relative to different instruction
// addresses, so those operands, and all operands without merging, form
// groups of their own.
func mergeGroups(prog *cfg.Program, members []int, opt Options) [][]int {
	keys := make([]cfg.CheckKey, 0, len(members))
	groups := make([][]int, 0, len(members))
	for _, m := range members {
		di := &prog.Insts[m]
		mem := di.Inst.Mem
		k := cfg.CheckKey{Seg: mem.Seg, Base: mem.Base, Index: mem.Index, Scale: mem.Scale,
			Mode: uint8(opt.modeAt(di.Addr))}
		g := len(keys)
		for j := 0; j < len(keys) && opt.Merge && mem.Base != isa.RIP; j++ {
			if keys[j] == k {
				g = j
				break
			}
		}
		if g == len(keys) {
			keys = append(keys, k)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], m)
	}
	return groups
}

// buildCheck constructs the check record for a merge group.
func buildCheck(prog *cfg.Program, group []int, opt Options) rtlib.Check {
	first := &prog.Insts[group[0]]
	c := rtlib.Check{
		PC:          first.Addr,
		Mode:        opt.modeAt(first.Addr),
		Operand:     first.Inst.Mem,
		NoSizeCheck: !opt.SizeCheck,
		Merged:      uint16(len(group)),
	}
	if first.Inst.Mem.Base == isa.RIP {
		c.RipNext = first.Addr + uint64(first.Inst.Len)
	}
	minDisp := first.Inst.Mem.Disp
	maxEnd := int64(minDisp) + int64(first.Inst.MemWidth())
	for _, m := range group {
		in := &prog.Insts[m].Inst
		if in.Writes() {
			c.Write = true
		}
		d := in.Mem.Disp
		if d < minDisp {
			minDisp = d
		}
		if end := int64(d) + int64(in.MemWidth()); end > maxEnd {
			maxEnd = end
		}
	}
	c.Operand.Disp = minDisp
	c.Len = uint32(maxEnd - int64(minDisp))
	return c
}
