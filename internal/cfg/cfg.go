// Package cfg implements the static binary analyses the RedFat rewriter
// needs (paper §6):
//
//   - linear disassembly of the text section;
//   - conservative basic-block (control-flow) recovery. Precise recovery
//     is undecidable; the analysis over-approximates the set of block
//     leaders, which can only shrink batch sizes, never break correctness;
//   - register def/use and clobber (dead-register) analysis, used to
//     specialize trampoline prologues;
//   - reorderability analysis for check batching: a memory access can be
//     checked at the head of its group only if the registers its operand
//     reads are not redefined in between.
package cfg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

// RegSet is a bitmask over the 16 general-purpose registers.
type RegSet uint16

// Add returns the set with r added (no-op for pseudo registers).
func (s RegSet) Add(r isa.Reg) RegSet {
	if r < isa.NumRegs {
		return s | 1<<r
	}
	return s
}

// Has reports whether r is in the set.
func (s RegSet) Has(r isa.Reg) bool {
	return r < isa.NumRegs && s&(1<<r) != 0
}

// Union returns the union of two sets.
func (s RegSet) Union(o RegSet) RegSet { return s | o }

// Intersects reports whether the sets share a register.
func (s RegSet) Intersects(o RegSet) bool { return s&o != 0 }

// Count returns the number of registers in the set.
func (s RegSet) Count() int { return bits.OnesCount16(uint16(s)) }

// AllRegs is the set of every general-purpose register.
const AllRegs RegSet = 0xFFFF

// clearRSP removes the stack pointer, which is never reported dead.
func (s RegSet) clearRSP() RegSet { return s &^ RegSet(0).Add(isa.RSP) }

// memAddrRegs returns the registers a memory operand's address depends on.
func memAddrRegs(m isa.Mem) RegSet {
	var s RegSet
	s = s.Add(m.Base) // Add ignores RIP/RegNone
	s = s.Add(m.Index)
	return s
}

// RegsRead returns the registers read by in (including address registers
// of memory operands and implicit reads).
func RegsRead(in *isa.Inst) RegSet {
	var s RegSet
	if in.HasMem() {
		s = s.Union(memAddrRegs(in.Mem))
	}
	switch in.Op {
	case isa.RET:
		return s.Add(isa.RSP)
	case isa.PUSHF, isa.POPF:
		return s.Add(isa.RSP)
	case isa.CQO:
		return s.Add(isa.RAX)
	case isa.UDIV, isa.IDIV:
		return s.Add(isa.RAX).Add(in.Reg)
	case isa.CALL, isa.RTCALL:
		// Unknown callee: assume it reads everything (conservative).
		return AllRegs
	}
	switch in.Form {
	case isa.FRR:
		s = s.Add(in.Reg2)
		if in.Op != isa.MOV {
			s = s.Add(in.Reg) // ALU dst is also a source
		}
		if in.Op == isa.SHL || in.Op == isa.SHR || in.Op == isa.SAR {
			s = s.Add(isa.RCX).Add(in.Reg)
		}
		if in.Op == isa.XCHG {
			s = s.Add(in.Reg)
		}
	case isa.FRI:
		if in.Op != isa.MOV && in.Op != isa.MOVABS {
			s = s.Add(in.Reg)
		}
	case isa.FRM:
		if in.Op != isa.MOV && in.Op != isa.MOVZX && in.Op != isa.MOVSX &&
			in.Op != isa.LEA {
			s = s.Add(in.Reg) // ALU-from-memory reads the register too
		}
	case isa.FMR:
		s = s.Add(in.Reg)
	case isa.FR:
		switch in.Op {
		case isa.PUSH:
			s = s.Add(in.Reg).Add(isa.RSP)
		case isa.POP:
			s = s.Add(isa.RSP)
		case isa.INC, isa.DEC, isa.NEG, isa.NOT, isa.JMP:
			s = s.Add(in.Reg)
		}
	case isa.FM:
		if in.Op == isa.PUSH || in.Op == isa.POP {
			s = s.Add(isa.RSP)
		}
	}
	return s
}

// RegsWritten returns the registers written by in.
func RegsWritten(in *isa.Inst) RegSet {
	var s RegSet
	switch in.Op {
	case isa.RET:
		return s.Add(isa.RSP)
	case isa.PUSHF, isa.POPF:
		return s.Add(isa.RSP)
	case isa.CQO:
		return s.Add(isa.RDX)
	case isa.UDIV, isa.IDIV:
		return s.Add(isa.RAX).Add(isa.RDX)
	case isa.CALL, isa.RTCALL:
		// Unknown callee: assume it may write everything.
		return AllRegs
	}
	switch in.Form {
	case isa.FRR:
		if in.Op == isa.CMP || in.Op == isa.TEST {
			return s
		}
		s = s.Add(in.Reg)
		if in.Op == isa.XCHG {
			s = s.Add(in.Reg2)
		}
	case isa.FRI:
		if in.Op == isa.CMP || in.Op == isa.TEST {
			return s
		}
		s = s.Add(in.Reg)
	case isa.FRM:
		if in.Op == isa.CMP || in.Op == isa.TEST {
			return s
		}
		s = s.Add(in.Reg)
	case isa.FR:
		switch in.Op {
		case isa.PUSH:
			s = s.Add(isa.RSP)
		case isa.POP:
			s = s.Add(in.Reg).Add(isa.RSP)
		case isa.INC, isa.DEC, isa.NEG, isa.NOT, isa.SHL, isa.SHR, isa.SAR:
			s = s.Add(in.Reg)
		}
	case isa.FM:
		if in.Op == isa.PUSH || in.Op == isa.POP {
			s = s.Add(isa.RSP)
		}
	}
	return s
}

// DecodedInst pairs an instruction with its address.
type DecodedInst struct {
	Addr uint64
	Inst isa.Inst
}

// Program is a disassembled text section with recovered control flow.
//
// Every per-instruction fact is held densely, because the rewriter and the
// validator query them once or more per instruction of a Chrome-scale
// image: Insts in address order, the instruction starting at each text
// offset, and one leader flag per instruction. None of them is a hash map.
type Program struct {
	Binary *relf.Binary
	Insts  []DecodedInst

	base   uint64  // text section address
	at     []int32 // text offset → 1 + index into Insts; 0 inside an instruction
	leader []bool  // Insts index → starts a recovered basic block (over-approximated)
}

// Disassemble linearly decodes the binary's text section and recovers
// control flow. It works on stripped binaries; symbols (if present) only
// add leaders, improving precision of nothing and conservatism of
// everything.
func Disassemble(bin *relf.Binary) (*Program, error) {
	text := bin.Text()
	if text == nil {
		return nil, fmt.Errorf("cfg: binary has no text section")
	}
	data := text.Data
	switch {
	case len(data) == 0:
		return nil, fmt.Errorf("cfg: text section is empty")
	case len(data) > math.MaxInt32:
		return nil, fmt.Errorf("cfg: text section of %d bytes is too large", len(data))
	case text.Addr+uint64(len(data)) < text.Addr:
		return nil, fmt.Errorf("cfg: text section at %#x wraps the address space", text.Addr)
	}

	// Count the instructions first, so Insts is one allocation of its
	// final length: decoding is a small share of the whole.
	p := &Program{Binary: bin, base: text.Addr, at: make([]int32, len(data))}
	n := 0
	for off := 0; off < len(data); {
		in, err := isa.Decode(data[off:])
		if err != nil {
			return nil, fmt.Errorf("cfg: disassembly failed at %#x: %w", text.Addr+uint64(off), err)
		}
		n++
		p.at[off] = int32(n)
		off += int(in.Len)
	}
	p.Insts = make([]DecodedInst, n)
	for i, off := 0, 0; i < n; i++ {
		in, _ := isa.Decode(data[off:])
		p.Insts[i] = DecodedInst{Addr: text.Addr + uint64(off), Inst: in}
		off += int(in.Len)
	}
	p.leader = make([]bool, n)
	p.recoverLeaders()
	return p, nil
}

// recoverLeaders computes the conservative leader set.
func (p *Program) recoverLeaders() {
	mark := func(a uint64) {
		if i, ok := p.InstAt(a); ok {
			p.leader[i] = true
		}
	}

	mark(p.Binary.Entry)
	for _, s := range p.Binary.Symbols {
		if s.Func {
			mark(s.Addr)
		}
	}
	for i := range p.Insts {
		di := &p.Insts[i]
		in := &di.Inst
		next := di.Addr + uint64(in.Len)
		switch {
		case in.Op == isa.JMP || in.Op == isa.CALL:
			if in.Form == isa.FRel8 || in.Form == isa.FRel32 {
				mark(next + uint64(in.Imm))
			}
			mark(next) // the fall-through / return point starts a block
		case in.Op.IsCondJump():
			mark(next + uint64(in.Imm))
			mark(next)
		case in.Op == isa.RET || in.Op == isa.HLT || in.Op == isa.RTCALL:
			mark(next)
		}
		// Conservative over-approximation for indirect control flow:
		// any immediate that looks like a text address may be an
		// address-taken jump/call target.
		if in.Form == isa.FRI || in.Form == isa.FMI {
			mark(uint64(in.Imm))
		}
		if in.HasMem() && in.Mem.IsAbsolute() {
			mark(uint64(uint32(in.Mem.Disp)))
		}
		// Landing pads are indirect-branch targets by construction.
		if in.Op == isa.LPAD {
			p.leader[i] = true
		}
	}

	// Marker-built binaries declare their jump tables: every declared
	// entry is a known indirect-jump target, hence a leader. Note this is
	// content-gated, not knob-gated — block partitioning must not depend
	// on whether recovery is enabled, only on the binary itself.
	if sec := p.Binary.Section(relf.JumpTableSection); sec != nil {
		tables, err := relf.DecodeJumpTables(sec.Data)
		if err == nil {
			for _, t := range tables {
				s := p.Binary.SectionAt(t.Addr)
				if s == nil || len(s.Data) == 0 {
					continue
				}
				off := t.Addr - s.Addr
				for k := uint64(0); k < uint64(t.Entries); k++ {
					if off+8*k+8 > uint64(len(s.Data)) {
						break
					}
					mark(binary.LittleEndian.Uint64(s.Data[off+8*k:]))
				}
			}
		}
	}
}

// InstAt returns the index of the instruction at addr.
func (p *Program) InstAt(addr uint64) (int, bool) {
	if off := addr - p.base; off < uint64(len(p.at)) {
		if i := p.at[off]; i != 0 {
			return int(i) - 1, true
		}
	}
	return 0, false
}

// inText reports whether addr lies inside the text section (at an
// instruction boundary or not).
func (p *Program) inText(addr uint64) bool { return addr-p.base < uint64(len(p.at)) }

// LeaderAt reports whether instruction i starts a (recovered) basic block.
func (p *Program) LeaderAt(i int) bool { return p.leader[i] }

// IsLeader reports whether addr starts a (recovered) basic block.
func (p *Program) IsLeader(addr uint64) bool {
	i, ok := p.InstAt(addr)
	return ok && p.leader[i]
}

// BlockEnd returns the index one past the last instruction of the block
// beginning at instruction index i (exclusive bound).
func (p *Program) BlockEnd(i int) int {
	j := i
	for j < len(p.Insts) {
		in := &p.Insts[j].Inst
		if in.Op.IsBranch() || in.Op == isa.RTCALL || in.Op == isa.TRAP {
			return j + 1
		}
		j++
		if j < len(p.Insts) && p.leader[j] {
			return j
		}
	}
	return j
}

// DeadRegsAt returns the set of registers provably dead immediately before
// instruction i: registers written before being read on the straight-line
// continuation within the current basic block. Conservative: a register
// whose fate is unknown when the block ends is treated as live. RSP is
// never reported dead.
func (p *Program) DeadRegsAt(i int) RegSet {
	var dead, read RegSet
	end := p.BlockEnd(i)
	for j := i; j < end; j++ {
		in := &p.Insts[j].Inst
		if in.Op == isa.CALL || in.Op == isa.RTCALL || in.Op == isa.TRAP {
			break // unknown effects: stop the scan
		}
		r := RegsRead(in)
		w := RegsWritten(in)
		read = read.Union(r)
		dead = dead.Union(w &^ read)
	}
	return dead.clearRSP()
}

// FlagsDeadAt reports whether the flags register is provably dead before
// instruction i (every flag overwritten before being observed within the
// block). The scan tracks the four flags independently through the
// must-kill set isa.FlagsKilled: treating every flag-writing instruction as
// a whole-register kill would be unsound — INC/DEC preserve CF and a
// shift whose count may be zero preserves everything.
func (p *Program) FlagsDeadAt(i int) bool {
	var killed isa.FlagSet
	end := p.BlockEnd(i)
	for j := i; j < end; j++ {
		in := &p.Insts[j].Inst
		if FlagsRead(in)&^killed != 0 {
			return false // some not-yet-killed flag is observed
		}
		killed |= isa.FlagsKilled(in)
		if killed == isa.AllFlags {
			return true
		}
	}
	return false // block ended without killing all flags: assume live
}

// Batch is a group of memory-access instruction indices whose checks can
// be combined into a single trampoline invoked before the first member
// (paper §6, "Check batching").
type Batch struct {
	Members []int // indices into Program.Insts, in program order
}

// Batches groups checkable memory accesses. want reports whether the
// instruction at index i needs an instrumented check at all (already
// filtered by check elimination). The grouping enforces the paper's three
// batching properties: program order, same basic block, and address
// reorderability (the operand's registers are not written between the
// group head and the member).
func (p *Program) Batches(want func(i int) bool, maxBatch int) []Batch {
	var out []Batch
	var cur Batch
	var written RegSet
	flush := func() {
		if len(cur.Members) > 0 {
			out = append(out, cur)
			cur = Batch{}
		}
		written = 0
	}
	for i := range p.Insts {
		di := &p.Insts[i]
		in := &di.Inst
		if p.leader[i] {
			flush()
		}
		if want(i) && in.IsMemAccess() {
			regs := memAddrRegs(in.Mem)
			if regs.Intersects(written) || (maxBatch > 0 && len(cur.Members) >= maxBatch) {
				flush()
			}
			cur.Members = append(cur.Members, i)
		}
		written = written.Union(RegsWritten(in))
		if in.Op.IsBranch() || in.Op == isa.RTCALL || in.Op == isa.TRAP {
			flush()
		}
	}
	flush()
	return out
}
