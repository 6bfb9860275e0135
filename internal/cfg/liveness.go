package cfg

import "redfat/internal/isa"

// Liveness is the whole-CFG backward register+flags liveness analysis.
// The lattice is (RegSet, FlagSet) ordered by inclusion; the transfer
// function for one instruction is
//
//	live_in  = (live_out  \ RegsWritten) ∪ RegsRead
//	flags_in = (flags_out \ isa.FlagsKilled) ∪ FlagsRead
//
// and the block-level equations are solved with a worklist to a fixed
// point. Unknown block boundaries (indirect jumps, returns, traps,
// text end) use ⊤ = (AllRegs, AllFlags) as live-out, so the analysis is
// never less conservative than reality. RegsWritten over-approximates
// writes only for CALL/RTCALL, whose RegsRead is AllRegs — the gen set
// saturates before the kill can remove anything — and for shifts, which
// read their own operand; so using it as the kill set is sound.
type Liveness struct {
	g        *Graph
	liveOut  []RegSet
	flagsOut []isa.FlagSet
}

// NewLiveness solves the liveness equations over g.
func NewLiveness(g *Graph) *Liveness {
	n := len(g.Blocks)
	lv := &Liveness{
		g:        g,
		liveOut:  make([]RegSet, n),
		flagsOut: make([]isa.FlagSet, n),
	}
	liveIn := make([]RegSet, n)
	flagsIn := make([]isa.FlagSet, n)

	// Seed: worst-case boundary for unknown successors.
	for b := range g.Blocks {
		if g.Blocks[b].Unknown || len(g.Blocks[b].Succs) == 0 {
			lv.liveOut[b] = AllRegs
			lv.flagsOut[b] = isa.AllFlags
		}
	}

	inWork := make([]bool, n)
	work := make([]int, 0, n)
	for b := n - 1; b >= 0; b-- {
		work = append(work, b)
		inWork[b] = true
	}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		inWork[b] = false

		out := lv.liveOut[b]
		fout := lv.flagsOut[b]
		for _, s := range g.Blocks[b].Succs {
			out |= liveIn[s]
			fout |= flagsIn[s]
		}
		lv.liveOut[b] = out
		lv.flagsOut[b] = fout

		in, fin := lv.transferBlock(b, out, fout)
		if in != liveIn[b] || fin != flagsIn[b] {
			liveIn[b] = in
			flagsIn[b] = fin
			for _, p := range g.Blocks[b].Preds {
				if !inWork[p] {
					inWork[p] = true
					work = append(work, p)
				}
			}
		}
	}
	return lv
}

// transferBlock applies the backward transfer across all instructions
// of block b, given the block's live-out state.
func (lv *Liveness) transferBlock(b int, live RegSet, flags isa.FlagSet) (RegSet, isa.FlagSet) {
	blk := &lv.g.Blocks[b]
	p := lv.g.Prog
	for j := blk.End - 1; j >= blk.Start; j-- {
		in := &p.Insts[j].Inst
		live = (live &^ RegsWritten(in)) | RegsRead(in)
		flags = (flags &^ isa.FlagsKilled(in)) | FlagsRead(in)
	}
	return live, flags
}

// liveAt computes the live state immediately before instruction i by
// replaying the block suffix from the block's live-out state.
func (lv *Liveness) liveAt(i int) (RegSet, isa.FlagSet) {
	b := lv.g.BlockOf[i]
	blk := &lv.g.Blocks[b]
	p := lv.g.Prog
	live, flags := lv.liveOut[b], lv.flagsOut[b]
	for j := blk.End - 1; j >= i; j-- {
		in := &p.Insts[j].Inst
		live = (live &^ RegsWritten(in)) | RegsRead(in)
		flags = (flags &^ isa.FlagsKilled(in)) | FlagsRead(in)
	}
	return live, flags
}

// DeadRegsAt returns the registers provably dead immediately before
// instruction i, considering every path through the CFG. It is never
// less precise than Program.DeadRegsAt (the block-local oracle): the
// straight-line scan is the restriction of these equations to a single
// path with ⊤ at the block end. RSP is never reported dead.
func (lv *Liveness) DeadRegsAt(i int) RegSet {
	live, _ := lv.liveAt(i)
	return (AllRegs &^ live).clearRSP()
}

// FlagsDeadAt reports whether every condition flag is provably dead
// immediately before instruction i.
func (lv *Liveness) FlagsDeadAt(i int) bool {
	_, flags := lv.liveAt(i)
	return flags == 0
}
