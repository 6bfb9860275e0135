package cfg

import (
	"encoding/binary"

	"redfat/internal/isa"
)

// Block is a recovered basic block: a maximal straight-line run of
// instructions [Start, End) in Program.Insts.
type Block struct {
	Start, End int // instruction index range, End exclusive

	Succs []int // successor block ids (static edges only)
	Preds []int // predecessor block ids

	// Unknown marks blocks whose successor set is not statically known
	// (indirect jumps, returns, traps, falling off the text section).
	// Analyses treat the block boundary as the worst case: every
	// register and flag is live out, and no check availability flows.
	Unknown bool

	// Entry marks blocks reachable from outside static control flow:
	// the binary entry point, function symbols, direct call targets,
	// address-taken candidates, and blocks with no static predecessor.
	// The dominator analysis gives them a virtual-root edge.
	Entry bool
}

// Graph is the explicit control-flow graph over a Program's recovered
// blocks. Edges are conservative: indirect control flow is modelled by
// marking every address-taken candidate as an Entry (virtual-root edge),
// so a dominance claim can never rely on a transfer the analysis did
// not see.
type Graph struct {
	Prog    *Program
	Blocks  []Block
	BlockOf []int // instruction index → block id
	Entries []int // block ids with a virtual-root edge

	// Indirect holds the results of indirect-flow recovery. It is nil
	// unless the binary is marker-built (.rf.jt present) and recovery was
	// not disabled; unresolved sites stay Unknown either way.
	Indirect *IndirectInfo
}

// NewGraph partitions the program into basic blocks and builds explicit
// successor/predecessor edges, with indirect-flow recovery enabled.
func NewGraph(p *Program) *Graph {
	return NewGraphOpts(p, GraphOptions{})
}

// NewGraphOpts is NewGraph with explicit recovery options. Blocks left
// with no proven successor set keep Unknown set.
func NewGraphOpts(p *Program, opts GraphOptions) *Graph {
	g := &Graph{Prog: p, BlockOf: make([]int, len(p.Insts))}

	// Count the blocks first, so Blocks is one allocation; every block's
	// at most two static successors share one backing array.
	nb := 0
	for start := 0; start < len(p.Insts); start = p.BlockEnd(start) {
		nb++
	}
	g.Blocks = make([]Block, 0, nb)
	succs := make([]int, 2*nb)
	for start := 0; start < len(p.Insts); {
		end := p.BlockEnd(start)
		id := len(g.Blocks)
		g.Blocks = append(g.Blocks, Block{Start: start, End: end, Succs: succs[2*id : 2*id : 2*id+2]})
		for i := start; i < end; i++ {
			g.BlockOf[i] = id
		}
		start = end
	}

	addEdge := func(from int, toInst int) {
		to := g.BlockOf[toInst]
		if s := g.Blocks[from].Succs; len(s) == 0 || s[0] != to {
			g.Blocks[from].Succs = append(s, to)
		}
	}
	for b := range g.Blocks {
		blk := &g.Blocks[b]
		last := &p.Insts[blk.End-1]
		next := last.Addr + uint64(last.Inst.Len)
		g.linkBlock(b, blk, last, next, addEdge)
	}
	g.rebuildPreds()

	// Indirect-flow recovery: resolve Unknown blocks whose targets can be
	// proven (marker-built binaries only; inert otherwise).
	if !opts.NoIndirect {
		g.recoverIndirect()
	}

	g.markEntries()
	return g
}

// linkBlock computes the successor edges of one block.
func (g *Graph) linkBlock(b int, blk *Block, last *DecodedInst, next uint64, addEdge func(int, int)) {
	p := g.Prog
	in := &last.Inst
	fallthru := func() {
		if i, ok := p.InstAt(next); ok {
			addEdge(b, i)
		} else {
			blk.Unknown = true // fell off the end of the text section
		}
	}
	switch {
	case in.Op == isa.JMP:
		switch in.Form {
		case isa.FRel8, isa.FRel32:
			if i, ok := p.InstAt(next + uint64(in.Imm)); ok {
				addEdge(b, i)
			} else {
				blk.Unknown = true
			}
		default: // indirect: targets are the address-taken entries
			blk.Unknown = true
		}
	case in.Op.IsCondJump():
		if i, ok := p.InstAt(next + uint64(in.Imm)); ok {
			addEdge(b, i)
		} else {
			blk.Unknown = true
		}
		fallthru()
	case in.Op == isa.CALL:
		// Intra-procedural view: the callee is opaque (RegsRead/Written
		// report everything) and control resumes at the return point.
		fallthru()
	case in.Op == isa.RTCALL:
		fallthru() // host call returns to the next instruction
	case in.Op == isa.RET, in.Op == isa.HLT:
		// Exit from the current function / machine: no static successor.
		blk.Unknown = true
	case in.Op == isa.TRAP:
		blk.Unknown = true // patch-table target unknown statically
	default:
		fallthru() // block ended at a leader boundary
	}
}

// markEntries computes the Entry set: blocks that may be reached by a
// control transfer the static edge set does not model.
func (g *Graph) markEntries() {
	p := g.Prog
	entry := make([]bool, len(g.Blocks))
	markAddr := func(a uint64) {
		if i, ok := p.InstAt(a); ok {
			entry[g.BlockOf[i]] = true
		}
	}

	markAddr(p.Binary.Entry)
	for _, s := range p.Binary.Symbols {
		if s.Func {
			markAddr(s.Addr)
		}
	}

	for i := range p.Insts {
		in := &p.Insts[i].Inst
		next := p.Insts[i].Addr + uint64(in.Len)
		// Direct call targets: reached by a transfer with no static edge.
		if in.Op == isa.CALL && (in.Form == isa.FRel8 || in.Form == isa.FRel32) {
			markAddr(next + uint64(in.Imm))
		}
		// Address-taken candidates in code (same heuristic as
		// recoverLeaders): any text-range immediate or absolute
		// displacement may be an indirect jump/call target.
		if in.Form == isa.FRI || in.Form == isa.FMI {
			markAddr(uint64(in.Imm))
		}
		if in.HasMem() && in.Mem.IsAbsolute() {
			markAddr(uint64(uint32(in.Mem.Disp)))
		}
	}

	// Address-taken candidates in data: function tables store code
	// addresses as 64-bit words in data/rodata sections, which never
	// appear as text immediates. Scan aligned words, skipping proven
	// jump-table spans: their flow is carried by explicit recovered
	// edges, which is exactly what lets dominance cross the dispatch.
	var proven []struct{ lo, hi uint64 }
	if g.Indirect != nil {
		for _, t := range g.Indirect.Tables {
			proven = append(proven, struct{ lo, hi uint64 }{t.Addr, t.Addr + 8*uint64(t.Entries)})
		}
	}
	inProven := func(a uint64) bool {
		for _, span := range proven {
			if a >= span.lo && a < span.hi {
				return true
			}
		}
		return false
	}
	for _, s := range p.Binary.Sections {
		if s.Exec || len(s.Data) < 8 {
			continue
		}
		for off := 0; off+8 <= len(s.Data); off += 8 {
			if inProven(s.Addr + uint64(off)) {
				continue
			}
			markAddr(binary.LittleEndian.Uint64(s.Data[off:]))
		}
	}

	// Blocks with no static predecessor must be entries, or they would
	// be unreachable in the graph while still reachable dynamically.
	for b := range g.Blocks {
		if len(g.Blocks[b].Preds) == 0 {
			entry[b] = true
		}
	}

	// Finally, iterate: every block must be reachable from the virtual
	// root so must-analyses cannot leave stale ⊤ facts on it.
	reached := make([]bool, len(g.Blocks))
	var stack []int
	dfs := func(from int) {
		if reached[from] {
			return
		}
		stack = append(stack[:0], from)
		reached[from] = true
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, s := range g.Blocks[b].Succs {
				if !reached[s] {
					reached[s] = true
					stack = append(stack, s)
				}
			}
		}
	}
	for b := range g.Blocks {
		if entry[b] {
			dfs(b)
		}
	}
	for b := range g.Blocks {
		if !reached[b] {
			entry[b] = true
			dfs(b)
		}
	}

	for b := range g.Blocks {
		if entry[b] {
			g.Blocks[b].Entry = true
			g.Entries = append(g.Entries, b)
		}
	}
}

// NumEdges returns the number of static CFG edges. Unknown blocks
// record no successors, so this counts proven edges only — ⊤ flow is
// invisible here by construction.
func (g *Graph) NumEdges() int {
	n := 0
	for b := range g.Blocks {
		n += len(g.Blocks[b].Succs)
	}
	return n
}
