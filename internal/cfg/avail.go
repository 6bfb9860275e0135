package cfg

import (
	"slices"

	"redfat/internal/isa"
)

// CheckKey identifies the address shape of a checked memory operand.
// Two operands with the same key and unredefined registers compute
// addresses that differ only by displacement.
type CheckKey struct {
	Seg         isa.Seg
	Base, Index isa.Reg
	Scale       uint8
	Mode        uint8 // check mode must match for one check to subsume another
}

// CheckSite is a (potential or emitted) check: the memory operand of
// instruction Inst covering guest addresses base+[Lo, Hi) relative to
// the operand's address shape.
type CheckSite struct {
	Inst   int   // index into Program.Insts
	Mode   uint8 // check mode (redfat.Mode* / rtlib.Mode*)
	Lo, Hi int64 // covered displacement span, Hi exclusive
}

// availFact records that a check with address shape Key, performed at
// site Witness, reaches the current program point on every path with the
// operand's registers unredefined and no allocator-visible call in
// between.
type availFact struct {
	Key     CheckKey
	Witness int // providing site's instruction index
	Lo, Hi  int64
}

// order is the sort key of a CheckKey within a fact set.
func (k CheckKey) order() uint64 {
	return uint64(k.Seg)<<32 | uint64(k.Base)<<24 | uint64(k.Index)<<16 |
		uint64(k.Scale)<<8 | uint64(k.Mode)
}

// facts is one Avail state: at most one availFact per CheckKey, sorted
// by key. Sorting makes set equality plain slice equality and the meet
// a linear merge. A state holds a handful of facts (every call clears
// it), so a slice costs far less than a map to copy, compare and probe.
type facts []availFact

// find returns the position of k in fs, or where it would be inserted.
func (fs facts) find(k CheckKey) (int, bool) {
	o := k.order()
	i := 0
	for i < len(fs) && fs[i].Key.order() < o {
		i++
	}
	return i, i < len(fs) && fs[i].Key == k
}

// gen makes f the fact of its key, replacing any earlier one.
func (fs facts) gen(f availFact) facts {
	i, ok := fs.find(f.Key)
	if !ok {
		fs = append(fs, availFact{})
		copy(fs[i+1:], fs[i:])
	}
	fs[i] = f
	return fs
}

// kill drops every fact whose address registers w may write.
func (fs facts) kill(w RegSet) facts {
	out := fs[:0]
	for _, f := range fs {
		if !w.Has(f.Key.Base) && !w.Has(f.Key.Index) {
			out = append(out, f)
		}
	}
	return out
}

// meet keeps the facts of fs that o holds with the same witness and span.
func (fs facts) meet(o facts) facts {
	out := fs[:0]
	j := 0
	for _, f := range fs {
		for j < len(o) && o[j].Key.order() < f.Key.order() {
			j++
		}
		if j < len(o) && o[j] == f {
			out = append(out, f)
		}
	}
	return out
}

// Avail is the forward "available checks" analysis. The domain maps
// each CheckKey to at most one availFact; the transfer function kills a
// key when any of its address registers may be written (RegsWritten,
// which saturates at CALL/RTCALL) or when the heap may change shape
// (CALL/RTCALL/TRAP kill everything, because free/realloc in the callee
// can invalidate a previously passing check), and generates the site's
// own fact at every check site. The meet is intersection with witness
// equality: a fact survives a join only if the same providing check
// reaches along every predecessor — which implies the witness dominates
// the join point, since facts are born only at their witness.
type Avail struct {
	g     *Graph
	sites []CheckSite
	gen   []int32 // Insts index → 1 + index into sites; 0 where no check is generated
	in    []facts // block in-states; a block never reached holds none
}

// siteKey derives the CheckKey of a site from its instruction operand.
// RIP-relative operands return ok=false: their absolute address depends
// on the instruction's own PC, so no two sites share an address shape.
func (p *Program) siteKey(s CheckSite) (CheckKey, bool) {
	in := &p.Insts[s.Inst].Inst
	if !in.HasMem() || in.Mem.Base == isa.RIP {
		return CheckKey{}, false
	}
	return CheckKey{
		Seg:   in.Mem.Seg,
		Base:  in.Mem.Base,
		Index: in.Mem.Index,
		Scale: in.Mem.Scale,
		Mode:  s.Mode,
	}, true
}

// NewAvail solves the availability equations with the given generating
// sites (deduplicated by instruction; later entries win).
func NewAvail(g *Graph, gens []CheckSite) *Avail {
	av := &Avail{
		g:     g,
		sites: gens,
		gen:   make([]int32, len(g.Prog.Insts)),
		in:    make([]facts, len(g.Blocks)),
	}
	for k, s := range gens {
		av.gen[s.Inst] = int32(k + 1)
	}
	av.solve()
	return av
}

// solve runs the worklist to the greatest fixed point. A block with no
// computed state yet is ⊤ (all facts), neutral for the meet.
func (av *Avail) solve() {
	g := av.g
	n := len(g.Blocks)
	isEntry := make([]bool, n)
	work := make([]int, 0, n)
	inWork := make([]bool, n)
	for _, e := range g.Entries {
		isEntry[e] = true
		work = append(work, e)
		inWork[e] = true
	}
	haveOut := make([]bool, n) // out[b] computed; a block's in-state is set first
	out := make([]facts, n)

	var in, cur facts
	for len(work) > 0 {
		b := work[0]
		work = work[1:]
		inWork[b] = false

		// Meet over predecessors (entries additionally meet with ∅
		// from the virtual root, i.e. their in-state stays empty).
		in = in[:0]
		if !isEntry[b] {
			met := false
			for _, p := range g.Blocks[b].Preds {
				if !haveOut[p] {
					continue // unvisited predecessor: ⊤, neutral for meet
				}
				if !met {
					in = append(in, out[p]...)
					met = true
					continue
				}
				in = in.meet(out[p])
			}
			if !met {
				continue // no predecessor visited yet
			}
		}

		if haveOut[b] && slices.Equal(av.in[b], in) {
			continue
		}
		av.in[b] = slices.Clone(in)
		cur = append(cur[:0], in...)
		cur = av.transferBlock(b, cur)
		if haveOut[b] && slices.Equal(out[b], cur) {
			continue
		}
		out[b] = slices.Clone(cur)
		haveOut[b] = true
		for _, s := range g.Blocks[b].Succs {
			if !inWork[s] {
				inWork[s] = true
				work = append(work, s)
			}
		}
	}
}

// transferBlock pushes the fact set through one block, in place.
func (av *Avail) transferBlock(b int, fs facts) facts {
	blk := &av.g.Blocks[b]
	for j := blk.Start; j < blk.End; j++ {
		fs = av.transferInst(j, fs, nil)
	}
	return fs
}

// transferInst applies instruction j to the fact set, in place. If onSite
// is non-nil it is called for the site generated at j (before the gen),
// with the fact currently available for the site's key, so callers can
// observe coverage exactly as the dataflow sees it.
func (av *Avail) transferInst(j int, fs facts, onSite func(s CheckSite, f availFact, ok bool)) facts {
	p := av.g.Prog
	in := &p.Insts[j].Inst

	// The check conceptually executes before the instruction's own
	// effects, so gen precedes the kill.
	if k := av.gen[j]; k != 0 {
		s := av.sites[k-1]
		if key, keyOK := p.siteKey(s); keyOK {
			if onSite != nil {
				var f availFact
				i, have := fs.find(key)
				if have {
					f = fs[i]
				}
				onSite(s, f, have)
			}
			fs = fs.gen(availFact{Key: key, Witness: s.Inst, Lo: s.Lo, Hi: s.Hi})
		} else if onSite != nil {
			onSite(s, availFact{}, false)
		}
	}

	switch in.Op {
	case isa.CALL, isa.RTCALL, isa.TRAP:
		// The callee may free or reallocate: no check survives.
		return fs[:0]
	}
	if w := RegsWritten(in); w != 0 && len(fs) > 0 {
		fs = fs.kill(w)
	}
	return fs
}

// replayTo returns the fact set holding immediately before instruction
// i (before i's own gen).
func (av *Avail) replayTo(i int) facts {
	b := av.g.BlockOf[i]
	fs := slices.Clone(av.in[b])
	for j := av.g.Blocks[b].Start; j < i; j++ {
		fs = av.transferInst(j, fs, nil)
	}
	return fs
}

// CoverageAt reports whether the operand span of s is covered by an
// available check at its instruction, and by which witness site.
func (av *Avail) CoverageAt(s CheckSite) (witness int, ok bool) {
	k, keyOK := av.g.Prog.siteKey(s)
	if !keyOK {
		return 0, false
	}
	fs := av.replayTo(s.Inst)
	i, have := fs.find(k)
	if !have || fs[i].Lo > s.Lo || fs[i].Hi < s.Hi {
		return 0, false
	}
	return fs[i].Witness, true
}

// RedundantChecks runs the availability analysis over the candidate
// sites and returns, for every site whose span is already covered by an
// available check, the instruction index of the providing site. Witness
// chains are resolved to their non-eliminated root: if A covers B and B
// covers C, C's recorded provider is A, whose check is actually emitted.
// Every returned provider's block dominates the eliminated site's block
// (asserted via dom; redundancy through a join of distinct checks does
// not survive the witness-equality meet).
func RedundantChecks(g *Graph, dom *DomTree, sites []CheckSite) map[int]int {
	av := NewAvail(g, sites)
	redundant := make(map[int]int)

	record := func(s CheckSite, f availFact, ok bool) {
		if !ok || f.Witness == s.Inst || f.Lo > s.Lo || f.Hi < s.Hi {
			return
		}
		// Safety net: the witness-equality meet guarantees the witness
		// block dominates; drop the elimination if it ever did not.
		if !dom.Dominates(g.BlockOf[f.Witness], g.BlockOf[s.Inst]) {
			return
		}
		redundant[s.Inst] = f.Witness
	}
	var fs facts
	for b := range g.Blocks {
		fs = append(fs[:0], av.in[b]...)
		for j := g.Blocks[b].Start; j < g.Blocks[b].End; j++ {
			fs = av.transferInst(j, fs, record)
		}
	}

	// Resolve witness chains to non-eliminated roots.
	resolve := func(w int) int {
		for {
			next, ok := redundant[w]
			if !ok {
				return w
			}
			w = next
		}
	}
	for i, w := range redundant {
		redundant[i] = resolve(w)
	}
	return redundant
}
