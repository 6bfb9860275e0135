// Package e9 implements trampoline-based static binary rewriting in the
// style of E9Patch (paper §2.2).
//
// The rewriter preserves the original code layout: at each instrumentation
// point, the instruction is overwritten with a jump that redirects control
// flow to a trampoline placed at an otherwise-unused virtual address. The
// trampoline executes (1) the instrumentation payload, (2) the displaced
// instruction(s), and (3) a jump back to the next original instruction.
// No control-flow recovery is required for correctness.
//
// Patch tactics, chosen per site by encoded instruction length (RF64's
// jmp rel32 is 6 bytes, jmp rel8 is 3 and TRAP is 1):
//
//	T1 — the instruction is ≥6 bytes: overwrite with jmp rel32.
//	T2 — steal bytes from following instructions: overwrite up to 6 bytes
//	     spanning several instructions (all displaced into the trampoline),
//	     provided no stolen instruction is a potential jump target and
//	     each can be relocated into the trampoline. This models E9Patch's
//	     instruction-punning tactics, which succeed for the overwhelming
//	     majority of short instructions.
//	T3 — last resort: a 1-byte TRAP patch dispatched through the binary's
//	     patch table, with a large per-execution cost (models signal- or
//	     punning-constrained dispatch).
//
// Stolen tail bytes are filled with TRAP so that a missed indirect jump
// into the middle of a patch surfaces loudly instead of corrupting state.
package e9

import (
	"fmt"
	"math"

	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/relf"
	"redfat/internal/telemetry"
)

// Tactic identifies which patch tactic a site used.
type Tactic uint8

// Patch tactics.
const (
	TacticNone Tactic = iota
	TacticT1          // direct jmp rel32
	TacticT2          // byte stealing across instructions
	TacticT3          // 1-byte trap
)

// String names the tactic.
func (t Tactic) String() string {
	switch t {
	case TacticT1:
		return "T1(jmp32)"
	case TacticT2:
		return "T2(steal)"
	case TacticT3:
		return "T3(trap)"
	}
	return "none"
}

const (
	jmp32Len = 6 // encoded length of jmp rel32
)

// Stats accumulates rewriting statistics.
type Stats struct {
	Patched    int
	T1, T2, T3 int
	TrampBytes int
	Stolen     int // instructions displaced beyond the patch site itself
}

// Publish exports the rewriting statistics as counters in reg (no-op when
// reg is nil), so tooling reads patch-tactic mix and trampoline footprint
// through the same interface as the runtime metrics.
func (s Stats) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("e9.patched").Add(uint64(s.Patched))
	reg.Counter("e9.tactic.t1").Add(uint64(s.T1))
	reg.Counter("e9.tactic.t2").Add(uint64(s.T2))
	reg.Counter("e9.tactic.t3").Add(uint64(s.T3))
	reg.Counter("e9.tramp.bytes").Add(uint64(s.TrampBytes))
	reg.Counter("e9.stolen").Add(uint64(s.Stolen))
}

// Rewriter rewrites one binary. Create with New, call Instrument for each
// patch point (in any order), then Finalize.
type Rewriter struct {
	Prog *cfg.Program
	bin  *relf.Binary
	text *relf.Section

	trampBase uint64
	tramp     []byte
	patches   map[uint64]uint64 // T3 trap address → trampoline
	origins   map[uint64]uint64 // trampoline → patched origin (all tactics)
	patched   []Tactic          // Prog.Insts index → tactic
	stolen    []bool            // Prog.Insts index → displaced by stealing
	reserved  []bool            // Prog.Insts index → future patch point stealing must avoid
	stats     Stats
}

// New prepares a rewriter over a clone of bin (the original is untouched,
// mirroring the prog.orig → prog.hard workflow of paper Fig. 5).
func New(bin *relf.Binary) (*Rewriter, error) {
	clone := bin.Clone()
	prog, err := cfg.Disassemble(clone)
	if err != nil {
		return nil, err
	}
	text := clone.Text()

	// Place the trampoline region in a hole above all sections, within
	// rel32 (±2 GB) reach of the text section.
	base := (clone.MaxAddr() + 0xFFFF) &^ uint64(0xFFFF)
	base += 1 << 20
	if base-text.Addr > math.MaxInt32/2 {
		return nil, fmt.Errorf("e9: no trampoline space within rel32 reach")
	}
	return &Rewriter{
		Prog:      prog,
		bin:       clone,
		text:      text,
		trampBase: base,
		patches:   make(map[uint64]uint64),
		origins:   make(map[uint64]uint64),
		patched:   make([]Tactic, len(prog.Insts)),
		stolen:    make([]bool, len(prog.Insts)),
		reserved:  make([]bool, len(prog.Insts)),
	}, nil
}

// Binary returns the working clone being rewritten. Callers may add
// imports (e.g. the check routine) before Finalize.
func (rw *Rewriter) Binary() *relf.Binary { return rw.bin }

// Reserve marks addresses as future patch points so that byte stealing
// never swallows them. Stealing displaces whole instructions, so an
// address inside one needs no mark.
func (rw *Rewriter) Reserve(addrs ...uint64) {
	for _, a := range addrs {
		if i, ok := rw.Prog.InstAt(a); ok {
			rw.reserved[i] = true
		}
	}
}

// Stats returns the statistics so far.
func (rw *Rewriter) Stats() Stats { return rw.stats }

// TacticAt returns the tactic used for the instruction at index i.
func (rw *Rewriter) TacticAt(i int) Tactic { return rw.patched[i] }

// textOffset converts a virtual address to an offset in the text data.
func (rw *Rewriter) textOffset(addr uint64) int { return int(addr - rw.text.Addr) }

func encodeTo(buf []byte, in isa.Inst) ([]byte, error) {
	return isa.Encode(buf, &in)
}

// relocate adjusts a displaced instruction for execution at newAddr. It
// returns the (possibly re-encoded) instruction with PC-relative fields
// fixed so the instruction's meaning is unchanged.
func relocate(di cfg.DecodedInst, newNext int64) (isa.Inst, error) {
	in := di.Inst
	oldNext := int64(di.Addr) + int64(in.Len)
	switch in.Form {
	case isa.FRel8, isa.FRel32:
		target := oldNext + in.Imm
		in.Form = isa.FRel32 // widen: trampolines are far from home
		in.Imm = target - newNext
		if in.Imm < math.MinInt32 || in.Imm > math.MaxInt32 {
			return in, fmt.Errorf("e9: relocated branch out of rel32 range")
		}
		return in, nil
	}
	if in.HasMem() && in.Mem.Base == isa.RIP {
		target := oldNext + int64(in.Mem.Disp)
		nd := target - newNext
		if nd < math.MinInt32 || nd > math.MaxInt32 {
			return in, fmt.Errorf("e9: relocated rip-relative operand out of range")
		}
		in.Mem.Disp = int32(nd)
	}
	return in, nil
}

// trampoline returns the trampoline region with one more trampoline
// appended: the payload, the displaced instructions relocated to run
// there, and a jump back to resume.
func (rw *Rewriter) trampoline(payload []isa.Inst, displaced []int, resume int64) ([]byte, error) {
	buf := rw.tramp
	var err error
	for _, p := range payload {
		if buf, err = encodeTo(buf, p); err != nil {
			return nil, fmt.Errorf("e9: payload: %w", err)
		}
	}
	for _, j := range displaced {
		d := rw.Prog.Insts[j]
		// The relocated instruction's "next" is wherever it lands; we
		// must encode to know the length, so iterate: lengths in RF64
		// depend only on the instruction content, and widening rel8→rel32
		// is the only length change, done inside relocate.
		probe, err := relocate(d, 0)
		if err != nil {
			return nil, err
		}
		plen, err := isa.EncodeLen(&probe)
		if err != nil {
			return nil, err
		}
		newNext := int64(rw.trampBase) + int64(len(buf)) + int64(plen)
		fixed, err := relocate(d, newNext)
		if err != nil {
			return nil, err
		}
		if buf, err = encodeTo(buf, fixed); err != nil {
			return nil, fmt.Errorf("e9: displaced %s: %w", d.Inst.String(), err)
		}
	}
	jback := isa.Inst{Op: isa.JMP, Form: isa.FRel32}
	jbackLen, _ := isa.EncodeLen(&isa.Inst{Op: isa.JMP, Form: isa.FRel32, Imm: 0})
	jback.Imm = resume - (int64(rw.trampBase) + int64(len(buf)) + int64(jbackLen))
	return encodeTo(buf, jback)
}

// Instrument patches the instruction at index i so that, at runtime, the
// payload instructions execute (with all guest state exactly as at the
// patch point), then the displaced instruction(s), then control returns
// to the original successor.
func (rw *Rewriter) Instrument(i int, payload []isa.Inst) error {
	if rw.patched[i] != TacticNone {
		return fmt.Errorf("e9: instruction %d already patched", i)
	}
	if rw.stolen[i] {
		return fmt.Errorf("e9: instruction %d was displaced by an earlier patch", i)
	}
	di := rw.Prog.Insts[i]
	instLen := int(di.Inst.Len)

	// Choose tactic.
	tactic := TacticT3
	span := instLen       // bytes overwritten at the patch site
	displaced := []int{i} // instruction indices displaced into the trampoline
	switch {
	case instLen >= jmp32Len:
		tactic = TacticT1
	default:
		// T2: try to steal following instructions until ≥6 bytes.
		span = instLen
		ok := true
		for j := i + 1; span < jmp32Len; j++ {
			if j >= len(rw.Prog.Insts) {
				ok = false
				break
			}
			nd := rw.Prog.Insts[j]
			if rw.Prog.LeaderAt(j) || rw.reserved[j] ||
				rw.stolen[j] || rw.patched[j] != TacticNone {
				ok = false
				break
			}
			displaced = append(displaced, j)
			span += int(nd.Inst.Len)
		}
		if ok {
			tactic = TacticT2
		} else {
			tactic = TacticT3
			span = instLen
			displaced = displaced[:1]
		}
	}

	// Build the trampoline. A displaced follower that cannot be
	// relocated there (a RIP-relative operand the trampoline is out of
	// reach of) leaves the head alone to T3.
	trampAddr := rw.trampBase + uint64(len(rw.tramp))
	buf, err := rw.trampoline(payload, displaced, int64(di.Addr)+int64(span))
	if err != nil && tactic == TacticT2 {
		tactic, span, displaced = TacticT3, instLen, displaced[:1]
		buf, err = rw.trampoline(payload, displaced, int64(di.Addr)+int64(span))
	}
	if err != nil {
		return err
	}

	// Patch the original site.
	off := rw.textOffset(di.Addr)
	switch tactic {
	case TacticT1, TacticT2:
		var jmp []byte
		disp := int64(trampAddr) - (int64(di.Addr) + jmp32Len)
		if disp < math.MinInt32 || disp > math.MaxInt32 {
			return fmt.Errorf("e9: trampoline out of rel32 reach")
		}
		jmp, err = encodeTo(nil, isa.Inst{Op: isa.JMP, Form: isa.FRel32, Imm: disp})
		if err != nil {
			return err
		}
		copy(rw.text.Data[off:], jmp)
		for k := len(jmp); k < span; k++ {
			rw.text.Data[off+k] = byte(isa.TRAP)
		}
	case TacticT3:
		rw.text.Data[off] = byte(isa.TRAP)
		rw.patches[di.Addr] = trampAddr
	}

	rw.tramp = buf
	rw.origins[trampAddr] = di.Addr
	rw.patched[i] = tactic
	for _, j := range displaced[1:] {
		rw.stolen[j] = true
	}
	rw.stats.Patched++
	rw.stats.Stolen += len(displaced) - 1
	switch tactic {
	case TacticT1:
		rw.stats.T1++
	case TacticT2:
		rw.stats.T2++
	case TacticT3:
		rw.stats.T3++
	}
	return nil
}

// Finalize appends the trampoline section, the trap patch table (if any
// T3 patches were needed) and the forensic trampoline-origin table, and
// returns the rewritten binary.
func (rw *Rewriter) Finalize() (*relf.Binary, error) {
	rw.stats.TrampBytes = len(rw.tramp)
	if len(rw.tramp) > 0 {
		rw.bin.AddSection(&relf.Section{
			Name: ".tramp", Kind: relf.SecTramp,
			Addr: rw.trampBase, Size: uint64(len(rw.tramp)),
			Data: rw.tramp, Exec: true,
		})
	}
	if len(rw.patches) > 0 {
		rw.bin.AddSection(&relf.Section{
			Name: relf.PatchTableSection, Kind: relf.SecMeta,
			Data: relf.EncodePatchTable(rw.patches),
		})
	}
	if len(rw.origins) > 0 {
		rw.bin.AddSection(&relf.Section{
			Name: relf.OriginTableSection, Kind: relf.SecMeta,
			Data: relf.EncodePatchTable(rw.origins),
		})
	}
	if err := rw.bin.CheckOverlaps(); err != nil {
		return nil, err
	}
	return rw.bin, nil
}
