// Package verify implements a static translation validator for hardened
// binaries: given the original and the rewritten RELF image, it
// re-derives what the rewriter must have done and checks the result
// against the metadata the rewriter shipped (.rf.sites, .rf.config,
// .rf.origins, .rf.patch, .rf.unprot), without executing either binary.
//
// The audits:
//
//   - round-trip: every patched site decodes back to a jump to its
//     trampoline (or a dispatched trap), the trampoline replays the
//     displaced original instructions with PC-relative fields re-resolved
//     to the same absolute targets, and control returns to the original
//     successor; all text bytes outside patched spans are untouched;
//   - stealing: byte stealing never swallowed a recovered block leader
//     or another trampoline's batch head;
//   - site table: every check record is referenced by exactly one
//     trampoline payload, leaders first and only first;
//   - liveness: every trampoline saves at least the registers and flags
//     the whole-CFG liveness analysis proves live at its head;
//   - coverage: every memory operand the recorded policy selects for
//     checking is protected by a check record at its own address or by
//     an available dominating check (operands in .rf.unprot are exempt).
//
// The package also hosts the superblock certifier (superblock.go): a
// run-time analogue of the same idea that re-derives every claim in a
// compiled trace plan (vm.TraceInfo) from the guest image and the
// single-step semantics, independently of the trace compiler.
package verify

import (
	"fmt"
	"io"
	"sort"

	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// Kind classifies a violation.
type Kind string

// Violation kinds.
const (
	KindMeta     Kind = "metadata" // missing or undecodable metadata section
	KindPatch    Kind = "patch"    // patched site does not round-trip
	KindTramp    Kind = "tramp"    // trampoline does not round-trip
	KindSteal    Kind = "steal"    // byte stealing swallowed a leader or batch head
	KindSites    Kind = "sites"    // site table inconsistent with the trampolines
	KindLiveness Kind = "liveness" // trampoline saves less state than is live
	KindCoverage Kind = "coverage" // selected operand not protected by any check
	KindTrace    Kind = "trace"    // superblock plan contradicts single-step semantics
	KindEdge     Kind = "edge"     // recovered indirect edge fails re-derivation
)

// Violation is one validation failure, anchored at a guest address.
type Violation struct {
	Kind   Kind   `json:"kind"`
	Addr   uint64 `json:"addr"`
	Detail string `json:"detail"`
}

// Report is the outcome of a validation run.
type Report struct {
	Trampolines int `json:"trampolines"` // origin entries validated
	Checks      int `json:"checks"`      // site-table records
	Operands    int `json:"operands"`    // policy-selected operands audited
	Covered     int `json:"covered"`     // operands protected by a check
	Exempt      int `json:"exempt"`      // operands exempted via .rf.unprot

	// Superblock certification (Superblocks / CertifyTrace).
	Traces      int `json:"traces,omitempty"`       // compiled trace plans certified
	TraceSteps  int `json:"trace_steps,omitempty"`  // instructions across those plans
	TraceChecks int `json:"trace_checks,omitempty"` // fused check sites

	// Indirect-flow edge audit (AuditEdges).
	EdgeSites   int `json:"edge_sites,omitempty"`   // recovered sites audited
	EdgeTargets int `json:"edge_targets,omitempty"` // recovered edges audited

	Violations []Violation `json:"violations,omitempty"`
}

// OK reports whether the binary validated cleanly.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Render writes a human-readable summary followed by every violation.
func (r *Report) Render(w io.Writer) {
	status := "OK"
	if !r.OK() {
		status = fmt.Sprintf("%d violations", len(r.Violations))
	}
	fmt.Fprintf(w, "verify: %s — %d trampolines, %d checks, %d/%d operands covered (%d exempt)\n",
		status, r.Trampolines, r.Checks, r.Covered, r.Operands, r.Exempt)
	if r.Traces > 0 {
		fmt.Fprintf(w, "verify: %d superblocks — %d steps, %d fused checks\n",
			r.Traces, r.TraceSteps, r.TraceChecks)
	}
	if r.EdgeSites > 0 {
		fmt.Fprintf(w, "verify: %d indirect sites audited — %d recovered edges\n",
			r.EdgeSites, r.EdgeTargets)
	}
	for _, v := range r.Violations {
		fmt.Fprintf(w, "  [%s] %#x: %s\n", v.Kind, v.Addr, v.Detail)
	}
}

func (r *Report) violate(k Kind, addr uint64, format string, args ...any) {
	r.Violations = append(r.Violations, Violation{
		Kind: k, Addr: addr, Detail: fmt.Sprintf(format, args...),
	})
}

const jmp32Len = 6 // encoded length of jmp rel32, the patch the rewriter plants

// Verify validates hard as a hardening of orig. An error means the
// inputs are unusable (no text section, undecodable original); problems
// with the hardened binary itself are reported as violations.
func Verify(orig, hard *relf.Binary) (*Report, error) {
	rep := &Report{}
	prog, err := cfg.Disassemble(orig)
	if err != nil {
		return nil, fmt.Errorf("verify: original: %w", err)
	}
	origText := orig.Text()
	hardText := hard.Text()
	if hardText == nil {
		rep.violate(KindMeta, 0, "hardened binary has no text section")
		return rep, nil
	}
	if hardText.Addr != origText.Addr || len(hardText.Data) != len(origText.Data) {
		rep.violate(KindMeta, hardText.Addr,
			"hardened text layout differs from original (%#x+%d vs %#x+%d)",
			hardText.Addr, len(hardText.Data), origText.Addr, len(origText.Data))
		return rep, nil
	}

	recs, err := rtlib.SitesFrom(hard)
	if err != nil {
		rep.violate(KindMeta, 0, "%v", err)
		return rep, nil
	}
	rep.Checks = len(recs)

	origins := sectionTable(hard, relf.OriginTableSection, rep)
	patches := sectionTable(hard, relf.PatchTableSection, rep)
	unprot := sectionTable(hard, redfat.UnprotSection, rep)
	trampSec := hard.Section(".tramp")

	var opt redfat.Options
	haveConfig := false
	if s := hard.Section(redfat.ConfigSection); s == nil {
		rep.violate(KindMeta, 0, "missing %s section", redfat.ConfigSection)
	} else if opt, _, err = redfat.DecodeConfig(s.Data); err != nil {
		rep.violate(KindMeta, 0, "%v", err)
	} else {
		haveConfig = true
	}

	checkIdx := -1
	for i, n := range hard.Imports {
		if n == rtlib.CheckImport {
			checkIdx = i
		}
	}

	// Batch heads (leader record PCs): stealing must never swallow one.
	leaderPC := make(map[uint64]bool)
	for i := range recs {
		if recs[i].Leader {
			leaderPC[recs[i].PC] = true
		}
	}

	// The validator's graph must be built under the same recovery knob the
	// rewriter recorded: recovered edges change the liveness and
	// availability solutions in both directions (new edges can both prove
	// and break facts), and the audits below compare against what the
	// rewriter actually used.
	df := cfg.NewDataflowOpts(prog, cfg.GraphOptions{NoIndirect: opt.NoIndirect})

	// Walk every trampoline (sorted for deterministic reports).
	trampAddrs := make([]uint64, 0, len(origins))
	for t := range origins {
		trampAddrs = append(trampAddrs, t)
	}
	sort.Slice(trampAddrs, func(i, j int) bool { return trampAddrs[i] < trampAddrs[j] })

	usedBy := make(map[int]uint64)  // record index → referencing trampoline
	patchedSpan := map[uint64]int{} // origin addr → overwritten byte count
	for _, trampAddr := range trampAddrs {
		origAddr := origins[trampAddr]
		rep.Trampolines++
		head, ok := prog.InstAt(origAddr)
		if !ok {
			rep.violate(KindPatch, origAddr, "origin is not an instruction boundary")
			continue
		}

		// Re-derive the patch: a jmp rel32 to the trampoline (T1/T2,
		// trailing stolen bytes trap-filled) or a dispatched trap (T3).
		off := int(origAddr - hardText.Addr)
		displaced := []int{head}
		span := int(prog.Insts[head].Inst.Len)
		site, derr := isa.Decode(hardText.Data[off:])
		switch {
		case derr == nil && site.Op == isa.JMP && site.Form == isa.FRel32 &&
			origAddr+uint64(site.Len)+uint64(site.Imm) == trampAddr:
			for span < jmp32Len {
				j := displaced[len(displaced)-1] + 1
				if j >= len(prog.Insts) {
					rep.violate(KindPatch, origAddr, "patch span runs past the text section")
					break
				}
				displaced = append(displaced, j)
				span += int(prog.Insts[j].Inst.Len)
			}
			for k := int(site.Len); k < span; k++ {
				if hardText.Data[off+k] != byte(isa.TRAP) {
					rep.violate(KindPatch, origAddr+uint64(k),
						"stolen byte %#x not trap-filled", hardText.Data[off+k])
				}
			}
		case hardText.Data[off] == byte(isa.TRAP) && patches[origAddr] == trampAddr:
			// T3: single-instruction trap dispatched through .rf.patch.
		default:
			rep.violate(KindPatch, origAddr,
				"patched site decodes to neither a jump to its trampoline %#x nor a dispatched trap", trampAddr)
			continue
		}
		patchedSpan[origAddr] = span

		// Stolen instructions must not include a recovered leader (a
		// potential jump target) or another trampoline's batch head.
		for _, j := range displaced[1:] {
			a := prog.Insts[j].Addr
			if prog.LeaderAt(j) {
				rep.violate(KindSteal, a, "byte stealing swallowed block leader (patch at %#x)", origAddr)
			}
			if leaderPC[a] && a != origAddr {
				rep.violate(KindSteal, a, "byte stealing swallowed batch head (patch at %#x)", origAddr)
			}
		}

		if trampSec == nil {
			rep.violate(KindMeta, trampAddr, "origin entry but no .tramp section")
			continue
		}
		walkTrampoline(rep, prog, trampSec, trampAddr, origAddr, head, displaced,
			span, recs, checkIdx, usedBy)
	}

	// Every check record must be referenced by exactly one trampoline.
	for i := range recs {
		if _, ok := usedBy[i]; !ok {
			rep.violate(KindSites, recs[i].PC, "check record %d referenced by no trampoline", i)
		}
	}

	// Text bytes outside patched spans must be untouched.
	touched := make([]bool, len(hardText.Data))
	for a, n := range patchedSpan {
		for k := 0; k < n; k++ {
			touched[int(a-hardText.Addr)+k] = true
		}
	}
	mismatch, first := 0, uint64(0)
	for i := range hardText.Data {
		if !touched[i] && hardText.Data[i] != origText.Data[i] {
			if mismatch == 0 {
				first = hardText.Addr + uint64(i)
			}
			mismatch++
		}
	}
	if mismatch > 0 {
		rep.violate(KindPatch, first, "%d unpatched text bytes differ from the original", mismatch)
	}

	// Liveness audit: the leader record of every trampoline must save at
	// least what the whole-CFG solution proves live at the head.
	auditLiveness(rep, df, prog, recs, usedBy)

	// Coverage audit: re-run the recorded selection policy and require
	// every selected operand to be protected or explicitly exempted.
	if haveConfig {
		auditCoverage(rep, df, prog, recs, unprot, opt)
	}

	// Edge audit: every recovered indirect-flow claim the rewriter's
	// dataflow consumed must be independently re-derivable from the
	// original binary alone. The base graph is built with recovery off so
	// its edges owe nothing to the claims under audit.
	if haveConfig && !opt.NoIndirect && df.Graph.Indirect != nil {
		base := cfg.NewGraphOpts(prog, cfg.GraphOptions{NoIndirect: true})
		AuditEdges(rep, orig, prog, base, df.Graph.Indirect)
	}
	return rep, nil
}

// sectionTable decodes an optional patch-table-format section; a missing
// section is an empty table, a corrupt one is a violation.
func sectionTable(bin *relf.Binary, name string, rep *Report) map[uint64]uint64 {
	s := bin.Section(name)
	if s == nil {
		return map[uint64]uint64{}
	}
	m, err := relf.DecodePatchTable(s.Data)
	if err != nil {
		rep.violate(KindMeta, 0, "%s: %v", name, err)
		return map[uint64]uint64{}
	}
	return m
}

// walkTrampoline decodes one trampoline and checks it against the
// displaced original instructions: payload check calls, then each
// displaced instruction relocated but semantically unchanged, then the
// jump back to the original successor.
func walkTrampoline(rep *Report, prog *cfg.Program, trampSec *relf.Section,
	trampAddr, origAddr uint64, head int, displaced []int, span int,
	recs []rtlib.Check, checkIdx int, usedBy map[int]uint64) {

	pos := trampAddr
	decodeNext := func() (isa.Inst, bool) {
		o := int(pos - trampSec.Addr)
		if o < 0 || o >= len(trampSec.Data) {
			rep.violate(KindTramp, pos, "trampoline for %#x runs past .tramp", origAddr)
			return isa.Inst{}, false
		}
		in, err := isa.Decode(trampSec.Data[o:])
		if err != nil {
			rep.violate(KindTramp, pos, "trampoline for %#x undecodable: %v", origAddr, err)
			return isa.Inst{}, false
		}
		pos += uint64(in.Len)
		return in, true
	}

	// Payload: the run of RTCALLs into the check import.
	var payload []int
	for {
		save := pos
		in, ok := decodeNext()
		if !ok {
			return
		}
		if in.Op != isa.RTCALL || in.Form != isa.FI {
			pos = save
			break
		}
		idx, arg := vm.SplitRTCallImm(in.Imm)
		if idx != checkIdx {
			pos = save
			break
		}
		si := int(arg)
		if si >= len(recs) {
			rep.violate(KindSites, save, "trampoline for %#x calls out-of-range check record %d", origAddr, si)
			return
		}
		if prev, dup := usedBy[si]; dup {
			rep.violate(KindSites, recs[si].PC,
				"check record %d referenced by trampolines %#x and %#x", si, prev, trampAddr)
		}
		usedBy[si] = trampAddr
		payload = append(payload, si)
	}
	if len(payload) == 0 {
		rep.violate(KindTramp, trampAddr, "trampoline for %#x has no check payload", origAddr)
	} else {
		lead := &recs[payload[0]]
		if !lead.Leader {
			rep.violate(KindSites, lead.PC,
				"first check of trampoline %#x is not flagged as batch leader", trampAddr)
		}
		if lead.PC != origAddr {
			rep.violate(KindSites, lead.PC,
				"leader check PC does not match patch origin %#x", origAddr)
		}
		for _, si := range payload[1:] {
			if recs[si].Leader {
				rep.violate(KindSites, recs[si].PC,
					"non-head check record %d flagged as batch leader (trampoline %#x)", si, trampAddr)
			}
		}
	}

	// Displaced instructions: relocated, semantically identical.
	for _, j := range displaced {
		tAddr := pos
		t, ok := decodeNext()
		if !ok {
			return
		}
		if d := displacedMismatch(prog.Insts[j], t, tAddr); d != "" {
			rep.violate(KindTramp, tAddr,
				"displaced %s at %#x does not round-trip: %s",
				prog.Insts[j].Inst.String(), prog.Insts[j].Addr, d)
		}
	}

	// Jump back to the first non-displaced original instruction.
	tAddr := pos
	jb, ok := decodeNext()
	if !ok {
		return
	}
	resume := origAddr + uint64(span)
	if jb.Op != isa.JMP || jb.Form != isa.FRel32 ||
		tAddr+uint64(jb.Len)+uint64(jb.Imm) != resume {
		rep.violate(KindTramp, tAddr,
			"trampoline for %#x does not return to %#x", origAddr, resume)
	}
}

// displacedMismatch compares a displaced original instruction with its
// trampoline copy at tAddr. Relocation may widen rel8 branches to rel32
// and rewrite PC-relative fields, but the absolute targets must be
// unchanged; everything else must be identical.
func displacedMismatch(o cfg.DecodedInst, t isa.Inst, tAddr uint64) string {
	if t.Op != o.Inst.Op {
		return fmt.Sprintf("opcode %s != %s", t.Op, o.Inst.Op)
	}
	oNext := int64(o.Addr) + int64(o.Inst.Len)
	tNext := int64(tAddr) + int64(t.Len)
	if o.Inst.Form == isa.FRel8 || o.Inst.Form == isa.FRel32 {
		if t.Form != isa.FRel32 {
			return fmt.Sprintf("relocated branch has form %d, want rel32", t.Form)
		}
		if oNext+o.Inst.Imm != tNext+t.Imm {
			return fmt.Sprintf("branch target %#x != original %#x",
				uint64(tNext+t.Imm), uint64(oNext+o.Inst.Imm))
		}
		return ""
	}
	if t.Form != o.Inst.Form || t.Reg != o.Inst.Reg || t.Reg2 != o.Inst.Reg2 {
		return "operands differ"
	}
	if o.Inst.HasMem() && o.Inst.Mem.Base == isa.RIP {
		om, tm := o.Inst.Mem, t.Mem
		if tm.Base != isa.RIP || tm.Seg != om.Seg || tm.Index != om.Index || tm.Scale != om.Scale {
			return "rip-relative operand shape differs"
		}
		if t.Imm != o.Inst.Imm {
			return "immediate differs"
		}
		if oNext+int64(om.Disp) != tNext+int64(tm.Disp) {
			return fmt.Sprintf("rip-relative target %#x != original %#x",
				uint64(tNext+int64(tm.Disp)), uint64(oNext+int64(om.Disp)))
		}
		return ""
	}
	if t.Imm != o.Inst.Imm || t.Mem != o.Inst.Mem {
		return "immediate or memory operand differs"
	}
	return ""
}

// auditLiveness checks every trampoline leader's save set against the
// validator's own whole-CFG liveness solution. The rewriter may save
// more (block-local liveness, or specialization disabled) but never
// less.
func auditLiveness(rep *Report, df *cfg.Dataflow, prog *cfg.Program,
	recs []rtlib.Check, usedBy map[int]uint64) {
	for i := range recs {
		c := &recs[i]
		if !c.Leader {
			continue
		}
		if _, ok := usedBy[i]; !ok {
			continue // already reported as unreferenced
		}
		head, ok := prog.InstAt(c.PC)
		if !ok {
			rep.violate(KindSites, c.PC, "leader check PC is not an instruction boundary")
			continue
		}
		required := 4 - df.DeadRegsAt(head).Count()
		if required < 0 {
			required = 0
		}
		if int(c.SavedRegs) < required {
			rep.violate(KindLiveness, c.PC,
				"trampoline saves %d scratch registers, %d live at head", c.SavedRegs, required)
		}
		if !c.SaveFlags && !df.FlagsDeadAt(head) {
			rep.violate(KindLiveness, c.PC, "trampoline drops flags that are live at head")
		}
	}
}

// auditCoverage re-runs the recorded site-selection policy over the
// original program and requires every selected operand to be protected:
// either a check record at its own address covering its span, or an
// available check (same address shape, unredefined registers, no
// intervening call) from a dominating site. Operands listed in
// .rf.unprot — patches the rewriter reported as failed — are exempt.
//
// Coverage is mode-agnostic: with an allow-list in effect the full/
// redzone split per site is not recoverable from the binary alone.
func auditCoverage(rep *Report, df *cfg.Dataflow, prog *cfg.Program,
	recs []rtlib.Check, unprot map[uint64]uint64, opt redfat.Options) {

	recsAt := make(map[uint64][]int)
	gens := make([]cfg.CheckSite, 0, len(recs))
	for i := range recs {
		c := &recs[i]
		recsAt[c.PC] = append(recsAt[c.PC], i)
		if j, ok := prog.InstAt(c.PC); ok {
			lo := int64(c.Operand.Disp)
			gens = append(gens, cfg.CheckSite{Inst: j, Lo: lo, Hi: lo + int64(c.Len)})
		}
	}
	av := cfg.NewAvail(df.Graph, gens)

	for i := range prog.Insts {
		di := &prog.Insts[i]
		in := &di.Inst
		if !in.IsMemAccess() {
			continue
		}
		if !opt.CheckReads && !in.Writes() {
			continue
		}
		if opt.Elim && redfat.Eliminable(in.Mem) {
			continue
		}
		rep.Operands++
		if _, ok := unprot[di.Addr]; ok {
			rep.Exempt++
			continue
		}
		lo := int64(in.Mem.Disp)
		hi := lo + int64(in.MemWidth())
		covered := false
		for _, ri := range recsAt[di.Addr] {
			c := &recs[ri]
			if c.Operand.Seg == in.Mem.Seg && c.Operand.Base == in.Mem.Base &&
				c.Operand.Index == in.Mem.Index && c.Operand.Scale == in.Mem.Scale &&
				int64(c.Operand.Disp) <= lo && int64(c.Operand.Disp)+int64(c.Len) >= hi {
				covered = true
				break
			}
		}
		if !covered {
			_, covered = av.CoverageAt(cfg.CheckSite{Inst: i, Lo: lo, Hi: hi})
		}
		if covered {
			rep.Covered++
			continue
		}
		rep.violate(KindCoverage, di.Addr,
			"selected operand %s is protected by no check", in.Mem.String())
	}
}

// Structural validates a hardened binary without its original: metadata
// sections decode, every trampoline's payload references valid check
// records (leaders first and only first), every record is referenced
// exactly once, and every trampoline ends in a jump back into the text
// section past its origin. Round-trip, liveness and coverage audits
// require the original binary (use Verify).
func Structural(hard *relf.Binary) (*Report, error) {
	rep := &Report{}
	text := hard.Text()
	if text == nil {
		rep.violate(KindMeta, 0, "no text section")
		return rep, nil
	}
	recs, err := rtlib.SitesFrom(hard)
	if err != nil {
		rep.violate(KindMeta, 0, "%v", err)
		return rep, nil
	}
	rep.Checks = len(recs)
	if s := hard.Section(redfat.ConfigSection); s == nil {
		rep.violate(KindMeta, 0, "missing %s section", redfat.ConfigSection)
	} else if _, _, err := redfat.DecodeConfig(s.Data); err != nil {
		rep.violate(KindMeta, 0, "%v", err)
	}
	origins := sectionTable(hard, relf.OriginTableSection, rep)
	trampSec := hard.Section(".tramp")
	if len(origins) > 0 && trampSec == nil {
		rep.violate(KindMeta, 0, "origin entries but no .tramp section")
		return rep, nil
	}

	checkIdx := -1
	for i, n := range hard.Imports {
		if n == rtlib.CheckImport {
			checkIdx = i
		}
	}

	trampAddrs := make([]uint64, 0, len(origins))
	for t := range origins {
		trampAddrs = append(trampAddrs, t)
	}
	sort.Slice(trampAddrs, func(i, j int) bool { return trampAddrs[i] < trampAddrs[j] })

	usedBy := make(map[int]uint64)
	for _, trampAddr := range trampAddrs {
		origAddr := origins[trampAddr]
		rep.Trampolines++
		if origAddr < text.Addr || origAddr >= text.End() {
			rep.violate(KindPatch, origAddr, "origin outside the text section")
			continue
		}
		pos := trampAddr
		var payload []int
		sawBack := false
		inPayload := true // the payload is a prefix: ends at the first non-check instruction
		for {
			o := int(pos - trampSec.Addr)
			if o < 0 || o >= len(trampSec.Data) {
				rep.violate(KindTramp, pos, "trampoline for %#x runs past .tramp", origAddr)
				break
			}
			in, err := isa.Decode(trampSec.Data[o:])
			if err != nil {
				rep.violate(KindTramp, pos, "trampoline for %#x undecodable: %v", origAddr, err)
				break
			}
			if inPayload && in.Op == isa.RTCALL && in.Form == isa.FI {
				if idx, arg := vm.SplitRTCallImm(in.Imm); idx == checkIdx {
					si := int(arg)
					if si >= len(recs) {
						rep.violate(KindSites, pos, "out-of-range check record %d", si)
					} else {
						if prev, dup := usedBy[si]; dup {
							rep.violate(KindSites, recs[si].PC,
								"check record %d referenced by trampolines %#x and %#x", si, prev, trampAddr)
						}
						usedBy[si] = trampAddr
						payload = append(payload, si)
					}
					pos += uint64(in.Len)
					continue
				}
			}
			inPayload = false
			// Past the payload: scan for the jump back into text.
			if in.Op == isa.JMP && in.Form == isa.FRel32 {
				if tgt := pos + uint64(in.Len) + uint64(in.Imm); tgt > origAddr && tgt <= text.End() {
					sawBack = true
					break
				}
			}
			pos += uint64(in.Len)
			if pos > trampAddr+4096 {
				rep.violate(KindTramp, trampAddr, "trampoline for %#x has no return jump", origAddr)
				break
			}
		}
		if !sawBack {
			continue
		}
		if len(payload) == 0 {
			rep.violate(KindTramp, trampAddr, "trampoline for %#x has no check payload", origAddr)
			continue
		}
		if lead := &recs[payload[0]]; !lead.Leader || lead.PC != origAddr {
			rep.violate(KindSites, lead.PC,
				"trampoline %#x head record is not the leader at its origin", trampAddr)
		}
		for _, si := range payload[1:] {
			if recs[si].Leader {
				rep.violate(KindSites, recs[si].PC, "non-head check record %d flagged as leader", si)
			}
		}
	}
	for i := range recs {
		if _, ok := usedBy[i]; !ok {
			rep.violate(KindSites, recs[i].PC, "check record %d referenced by no trampoline", i)
		}
	}
	return rep, nil
}
