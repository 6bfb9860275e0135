package vm

// The decoded basic-block cache: the VM's host-side fast path.
//
// The seed interpreter paid one map[uint64] lookup per retired guest
// instruction (a per-PC decode cache). The block cache replaces that
// with straight-line execution over predecoded runs: code is decoded once
// into blocks — maximal fall-through sequences ending at the first
// control transfer, TRAP patch site, or RTCALL — and Run executes a whole
// block with nothing but a slice index per instruction. Blocks are
// indexed by per-code-page tables: a page's 4096 offsets are split into
// 64-offset lines of block pointers, and a line is allocated when the
// first block starting in it is cached, so a short run that executes a
// few blocks of a page allocates a few hundred bytes for it. Locating the
// next block after a branch costs a single-entry page-cache hit plus two
// array indexes in the common case.
//
// Block chaining removes even that cost from the steady state: each block
// carries two successor slots — a fall-through slot (keyed by the fixed
// address after the block's last instruction) and a taken slot (a
// one-entry BTB keyed by the last observed branch target). On block exit
// the chain is consulted first, so straight-line and loop-heavy code
// never touches the block tables at all; only a changed indirect target
// or a cold edge falls back to the page-table walk, which then installs
// the chain for next time. Chains are pointers into the same cache the
// per-page tables index, so FlushICache invalidates both together (the
// tables and every chain die with the cache generation).
//
// The cache is host-side only: cycle accounting, hook invocation order
// (MemHook, BlockHook), error reporting and the cycle-budget abort point
// are bit-identical to VM.Step, which decodes every instruction afresh
// and is the reference the identity tests compare against. Chaining is
// unconditional; perfbench reports how many block exits it absorbs
// (vm.chain_hit_rate).

import (
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/obs"
)

// maxBlockInsts bounds eager decode-ahead so a pathological straight-line
// run cannot stall the first instruction of a block; longer runs simply
// chain into the next block.
const maxBlockInsts = 64

// pageOffMask extracts the page offset of an address.
const pageOffMask = mem.PageSize - 1

// blockInst is one predecoded instruction with its program counter.
// Fusing the two into a single slice element keeps the hot execution
// loop to one bounds check and one sequential cache stream per
// instruction.
type blockInst struct {
	pc uint64
	in isa.Inst
}

// block is one straight-line run of predecoded instructions, plus the
// chain slots linking it to its observed successors.
type block struct {
	insts []blockInst // predecoded instructions in fall-through order

	fallPC uint64 // address after the last instruction (fall-through edge)
	fall   *block // successor when control falls through (nil until chained)

	takenPC uint64 // last observed non-fall-through exit target
	taken   *block // its block (a one-entry BTB for indirect exits)

	// Superblock tier state: hot counts dispatches to this block as a
	// potential trace root; trace is the compiled superblock once the
	// hotness threshold is crossed; noTrace pins the block to the
	// interpreter after a failed compilation attempt. All three die with
	// the cache generation on FlushICache.
	hot     uint32
	noTrace bool
	trace   *trace
}

// Code-page line geometry: a line indexes the blocks of lineSize
// consecutive page offsets.
const (
	lineShift = 6
	lineSize  = 1 << lineShift
)

// codePage indexes the blocks that begin on one 4 KiB code page by page
// offset, through lines allocated on first use.
type codePage struct {
	lines [mem.PageSize / lineSize]*[lineSize]*block
}

// block returns the cached block starting at page offset off, or nil.
func (cp *codePage) block(off uint64) *block {
	if l := cp.lines[off>>lineShift]; l != nil {
		return l[off&(lineSize-1)]
	}
	return nil
}

// setBlock caches b as the block starting at page offset off.
func (cp *codePage) setBlock(off uint64, b *block) {
	l := cp.lines[off>>lineShift]
	if l == nil {
		l = new([lineSize]*block)
		cp.lines[off>>lineShift] = l
	}
	l[off&(lineSize-1)] = b
}

// endsBlock reports whether op terminates a straight-line block: control
// transfers, TRAP (patch-table redirection), and RTCALL (host handlers may
// rewrite RIP).
func endsBlock(op isa.Op) bool {
	return op.IsBranch() || op == isa.TRAP || op == isa.RTCALL
}

// blockAt returns the block starting at pc, building and caching it on
// first use.
func (v *VM) blockAt(pc uint64) (*block, error) {
	idx := pc >> mem.PageShift
	cp := v.bcPage
	if idx != v.bcPageIdx {
		cp = v.bcache[idx]
		if cp == nil {
			cp = &codePage{}
			v.bcache[idx] = cp
		}
		v.bcPageIdx, v.bcPage = idx, cp
	}
	b := cp.block(pc & pageOffMask)
	if b == nil {
		var err error
		if b, err = v.buildBlock(pc); err != nil {
			return nil, err
		}
		cp.setBlock(pc&pageOffMask, b)
		v.nBlocks++
		v.nBlockInsts += len(b.insts)
		v.Flight.Record(obs.EvBlockEntry, 0, pc, 1)
	} else {
		// Table walk on a cold or re-targeted edge (chain hits never get
		// here, so this stays off the per-instruction fast path).
		v.Flight.Record(obs.EvBlockEntry, 0, pc, 0)
	}
	return b, nil
}

// buildBlock decodes the straight-line run beginning at start. Fetch or
// decode failures after the first instruction end the block early rather
// than erroring: execution that actually falls through to the bad address
// reports the fault there, exactly as Step would.
func (v *VM) buildBlock(start uint64) (*block, error) {
	b := &block{}
	pc := start
	for len(b.insts) < maxBlockInsts {
		in, err := v.decodeAt(pc)
		if err != nil {
			if len(b.insts) == 0 {
				return nil, err
			}
			break
		}
		if v.tel != nil {
			v.tel.icacheMiss.Inc()
		}
		b.insts = append(b.insts, blockInst{pc: pc, in: in})
		pc += uint64(in.Len)
		if endsBlock(in.Op) {
			break
		}
	}
	b.fallPC = pc
	return b, nil
}

// runBlocks is Run's dispatch loop: execute straight-line through cached
// blocks, following chained successors on block exit and touching the
// block tables only on cold or re-targeted edges.
func (v *VM) runBlocks() error {
	jitOK := v.jitEnabled()
	var b *block
	for !v.Halted {
		if b == nil {
			nb, err := v.blockAt(v.RIP)
			if err != nil {
				return err
			}
			b = nb
		}
		// Superblock tier: once this block is hot, execute the compiled
		// trace rooted here instead of interpreting. A nil exit means
		// entry was refused (cycle budget too tight for a worst-case
		// iteration) and the block is interpreted this round so the
		// abort fires at the exact instruction.
		if jitOK {
			if t := v.jitTrace(b); t != nil {
				e, err := v.runTrace(t)
				if err != nil {
					return err
				}
				if e != nil {
					if v.Halted {
						return nil
					}
					if e.next != nil && e.nextPC == v.RIP {
						b = e.next
						continue
					}
					nb, err := v.blockAt(v.RIP)
					if err != nil {
						return err
					}
					e.nextPC, e.next = v.RIP, nb
					b = nb
					continue
				}
			}
		}
		for i := 0; ; {
			bi := &b.insts[i]
			if err := v.exec(bi.pc, &bi.in); err != nil {
				return err
			}
			if v.MaxCycles != 0 && v.Cycles > v.MaxCycles {
				return v.overBudget()
			}
			if v.Halted {
				return nil
			}
			i++
			if i == len(b.insts) {
				break
			}
			// Mid-block instructions cannot transfer control: blocks end
			// at the first branch/TRAP/RTCALL, and HLT trips the Halted
			// check above. So RIP here is always insts[i].pc — no re-check.
		}
		// Block exit: follow the chain if the observed target matches.
		rip := v.RIP
		if rip == b.fallPC && b.fall != nil {
			b = b.fall
			if v.tel != nil {
				v.tel.chainHits.Inc()
			}
			continue
		}
		if rip == b.takenPC && b.taken != nil {
			b = b.taken
			if v.tel != nil {
				v.tel.chainHits.Inc()
			}
			continue
		}
		nb, err := v.blockAt(rip)
		if err != nil {
			return err
		}
		if v.tel != nil {
			v.tel.chainMisses.Inc()
		}
		if rip == b.fallPC {
			b.fall = nb
		} else {
			b.takenPC, b.taken = rip, nb
		}
		b = nb
	}
	return nil
}
