package vm

// Phase one of the superblock compiler: derive a declarative TraceInfo
// from a chained block sequence. analyzeTrace walks the chain rooted at
// a hot block, mirrors the interpreter's cost model per instruction
// (including the partial charges of every fault point), predicts
// conditional branches from the chain slots, and then runs one
// optimization analysis over the straight line:
//
//   - markDeadFlags: per-flag backward liveness. A step's condition-flag
//     update is elided when no flag it may write is observed (by a
//     conditional jump or PUSHF) before being unconditionally
//     overwritten, on any path that materializes flags. Flags are forced
//     live at the trace end and at every side exit — those resume in the
//     interpreter — but not at fault exits, where the run terminates and
//     flags are unobservable (nothing outside the VM reads them).
//
// Fused check sites are recorded as they are met; each runs its full
// check.
//
// Everything the phase decides is recorded in TraceInfo/stepAux; the
// emitter compiles from the record alone, and internal/verify re-derives
// the record independently (DESIGN.md §14).

import "redfat/internal/isa"

// Per-flag liveness masks. These are local to the JIT (the cfg package
// has a coarser whole-program notion that treats calls as reading all
// flags; inside a trace every successor is explicit, so the JIT can be
// exact). fAll is the conservative "everything live" element.
const (
	fZ uint8 = 1 << iota
	fS
	fC
	fO

	fAll = fZ | fS | fC | fO
)

// jitCondFlags returns the flags a conditional jump reads.
func jitCondFlags(op isa.Op) uint8 {
	switch op {
	case isa.JE, isa.JNE:
		return fZ
	case isa.JL, isa.JGE:
		return fS | fO
	case isa.JLE, isa.JG:
		return fZ | fS | fO
	case isa.JB, isa.JAE:
		return fC
	case isa.JBE, isa.JA:
		return fC | fZ
	case isa.JS, isa.JNS:
		return fS
	case isa.JO, isa.JNO:
		return fO
	}
	return 0
}

// jitFlagsRead returns the flags an on-trace instruction observes.
// CALL/TRAP/RTCALL read nothing here: their on-trace successors are
// explicit steps, and off-trace exits force full liveness separately.
func jitFlagsRead(in *isa.Inst) uint8 {
	if in.Op.IsCondJump() {
		return jitCondFlags(in.Op)
	}
	if in.Op == isa.PUSHF {
		return fAll
	}
	return 0
}

// jitFlagsKilled returns the flags an instruction unconditionally
// overwrites on its continue path.
func jitFlagsKilled(in *isa.Inst) uint8 {
	switch in.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL, isa.NEG, isa.POPF:
		return fAll
	case isa.INC, isa.DEC:
		return fZ | fS | fO // CF preserved (x86 semantics)
	case isa.SHL, isa.SHR, isa.SAR:
		// A shift writes flags only when the masked count is nonzero;
		// that is static for immediate counts, unknowable for CL.
		if in.Form == isa.FRI && uint64(in.Imm)&63 != 0 {
			return fAll
		}
		return 0
	}
	return 0
}

// jitFlagsMayWrite returns the flags an instruction might write — the
// kill set, except that a CL-count shift may write without being
// guaranteed to.
func jitFlagsMayWrite(in *isa.Inst) uint8 {
	if in.Op == isa.SHL || in.Op == isa.SHR || in.Op == isa.SAR {
		if in.Form == isa.FRI {
			if uint64(in.Imm)&63 != 0 {
				return fAll
			}
			return 0
		}
		return fAll
	}
	return jitFlagsKilled(in)
}

// stepAux is the emitter-facing side channel of one analyzed step: data
// the closures need that is not part of the certifiable TraceInfo
// contract (the resolved check plan; exit-id bookkeeping).
type stepAux struct {
	plan    *JITCheck // resolved plan of a fused check step
	onTaken bool      // conditional branch predicted taken
	exits   []int     // 1-based exit ids of this step, in chronological order
	contID  int       // terminal exit id returned on the last step's continue path
}

// traceBuilder accumulates the TraceInfo during the chain walk.
type traceBuilder struct {
	v     *VM
	info  *TraceInfo
	aux   []stepAux
	entry uint64
}

// addStep appends one step and its aux record, returning the step index.
func (tb *traceBuilder) addStep(pc uint64, in *isa.Inst, next, cost uint64) int {
	tb.info.Steps = append(tb.info.Steps, TraceStep{
		PC: pc, Inst: *in, Next: next, Cost: cost,
	})
	tb.aux = append(tb.aux, stepAux{contID: 0})
	return len(tb.info.Steps) - 1
}

// addExit appends one exit for step. Cycles temporarily holds only the
// exiting step's own charge on that path; finalize adds the prefix sum
// of the preceding steps.
func (tb *traceBuilder) addExit(step int, kind ExitKind, stage uint8, rip uint64, dyn bool, extra uint64) int {
	tb.info.Exits = append(tb.info.Exits, TraceExit{
		Step: step, Kind: kind, Stage: stage, RIP: rip, Dynamic: dyn,
		Retired: uint64(step + 1), Cycles: extra,
	})
	id := len(tb.info.Exits)
	tb.aux[step].exits = append(tb.aux[step].exits, id)
	return id
}

// terminate ends the trace with a fall exit resuming at rip (always the
// last step's static successor).
func (tb *traceBuilder) terminate(rip uint64) {
	last := len(tb.info.Steps) - 1
	tb.aux[last].contID = tb.addExit(last, ExitFall, 0, rip, false, tb.info.Steps[last].Cost)
}

// loopExit ends the trace with a back edge to its own entry.
func (tb *traceBuilder) loopExit() {
	last := len(tb.info.Steps) - 1
	tb.aux[last].contID = tb.addExit(last, ExitLoop, 0, tb.entry, false, tb.info.Steps[last].Cost)
}

// step analyzes one instruction, mirroring the interpreter's cost and
// fault structure exactly. It reports ok=false when the instruction
// cannot be compiled (the trace then ends just before it) and done=true
// when the instruction itself terminates the trace (dynamic control
// flow or halt).
func (tb *traceBuilder) step(b *block, pc uint64, in *isa.Inst) (ok, done bool) {
	v := tb.v
	base := uint64(CostInst)
	next := pc + uint64(in.Len)

	switch in.Op {
	case isa.NOP, isa.CQO, isa.LPAD:
		tb.addStep(pc, in, next, base)

	case isa.XCHG:
		if in.Form != isa.FRR {
			return false, false
		}
		tb.addStep(pc, in, next, base)

	case isa.LEA:
		tb.addStep(pc, in, next, base)

	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX,
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL:
		var mul uint64
		if in.Op == isa.IMUL {
			mul = CostMul
		}
		switch in.Form {
		case isa.FRR, isa.FRI:
			tb.addStep(pc, in, next, base+mul)
		case isa.FRM:
			s := tb.addStep(pc, in, next, base+CostMem+mul)
			// The load charges CostMem before faulting; IMUL's CostMul
			// is charged by the compute after the load, so a load fault
			// excludes it.
			tb.addExit(s, ExitFault, 1, pc, false, base+CostMem)
		case isa.FMR, isa.FMI:
			switch in.Op {
			case isa.MOV: // plain store
				s := tb.addStep(pc, in, next, base+CostMem)
				tb.addExit(s, ExitFault, 1, pc, false, base+CostMem)
			case isa.CMP, isa.TEST: // load only
				s := tb.addStep(pc, in, next, base+CostMem)
				tb.addExit(s, ExitFault, 1, pc, false, base+CostMem)
			case isa.MOVABS, isa.MOVZX, isa.MOVSX:
				return false, false
			default: // read-modify-write
				s := tb.addStep(pc, in, next, base+2*CostMem+mul)
				tb.addExit(s, ExitFault, 1, pc, false, base+CostMem)
				// Store fault: load and compute (incl. CostMul) already
				// charged, plus the store's own CostMem.
				tb.addExit(s, ExitFault, 2, pc, false, base+2*CostMem+mul)
			}
		default:
			return false, false
		}

	case isa.PUSH:
		switch in.Form {
		case isa.FR:
			s := tb.addStep(pc, in, next, base+CostMem)
			// push itself is a raw store; the explicit CostMem is only
			// charged after it succeeds.
			tb.addExit(s, ExitFault, 1, pc, false, base)
		case isa.FM:
			s := tb.addStep(pc, in, next, base+2*CostMem)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostMem) // load fault
			tb.addExit(s, ExitFault, 2, pc, false, base+CostMem) // push fault
		default:
			return false, false
		}

	case isa.PUSHF:
		s := tb.addStep(pc, in, next, base+CostMem)
		tb.addExit(s, ExitFault, 1, pc, false, base)

	case isa.POP:
		switch in.Form {
		case isa.FR:
			s := tb.addStep(pc, in, next, base+CostMem)
			tb.addExit(s, ExitFault, 1, pc, false, base) // raw pop fault
		case isa.FM:
			s := tb.addStep(pc, in, next, base+2*CostMem)
			tb.addExit(s, ExitFault, 1, pc, false, base) // raw pop fault
			// Store fault: pop's explicit CostMem plus the store's.
			tb.addExit(s, ExitFault, 2, pc, false, base+2*CostMem)
		default:
			return false, false
		}

	case isa.POPF:
		s := tb.addStep(pc, in, next, base+CostMem)
		tb.addExit(s, ExitFault, 1, pc, false, base)

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		if in.Form == isa.FR {
			tb.addStep(pc, in, next, base)
			break
		}
		s := tb.addStep(pc, in, next, base+2*CostMem)
		tb.addExit(s, ExitFault, 1, pc, false, base+CostMem)
		tb.addExit(s, ExitFault, 2, pc, false, base+2*CostMem)

	case isa.SHL, isa.SHR, isa.SAR:
		tb.addStep(pc, in, next, base)

	case isa.UDIV, isa.IDIV:
		s := tb.addStep(pc, in, next, base+CostDiv)
		tb.addExit(s, ExitFault, 1, pc, false, base+CostDiv)

	case isa.HLT:
		s := tb.addStep(pc, in, next, base)
		tb.aux[s].contID = tb.addExit(s, ExitHalt, 0, next, false, base)
		return true, true

	case isa.TRAP:
		target, found := v.PatchTable[pc]
		if !found {
			return false, false // executing it would be a VM error
		}
		tb.addStep(pc, in, target, base+CostTrap)

	case isa.JMP:
		switch in.Form {
		case isa.FRel8, isa.FRel32:
			tb.addStep(pc, in, next+uint64(in.Imm), base+CostBranch)
		case isa.FR:
			if v.LPADCheck || v.IndirectTargets != nil || v.IndirectHook != nil {
				// Landing-pad enforcement, the escape monitor and the
				// indirect-transfer observation hook all live in the
				// interpreter's checkIndirect; end the trace before
				// the indirect branch so it retires there. Host-side
				// only: the trace boundary never changes guest cycles.
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostBranch)
			tb.aux[s].contID = tb.addExit(s, ExitDyn, 0, 0, true, base+CostBranch)
			return true, true
		case isa.FM:
			if v.LPADCheck || v.IndirectTargets != nil || v.IndirectHook != nil {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostMem+CostBranch)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostMem)
			tb.aux[s].contID = tb.addExit(s, ExitDyn, 0, 0, true, base+CostMem+CostBranch)
			return true, true
		default:
			return false, false
		}

	case isa.CALL:
		switch in.Form {
		case isa.FRel32:
			s := tb.addStep(pc, in, next+uint64(in.Imm), base+CostCall+CostBranch)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostCall) // push fault
		case isa.FR:
			if v.LPADCheck || v.IndirectTargets != nil || v.IndirectHook != nil {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostCall+CostBranch)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostCall)
			tb.aux[s].contID = tb.addExit(s, ExitDyn, 0, 0, true, base+CostCall+CostBranch)
			return true, true
		case isa.FM:
			if v.LPADCheck || v.IndirectTargets != nil || v.IndirectHook != nil {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostCall+CostMem+CostBranch)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostCall+CostMem) // load fault
			tb.addExit(s, ExitFault, 2, pc, false, base+CostCall+CostMem) // push fault
			tb.aux[s].contID = tb.addExit(s, ExitDyn, 0, 0, true, base+CostCall+CostMem+CostBranch)
			return true, true
		default:
			return false, false
		}

	case isa.RET:
		s := tb.addStep(pc, in, 0, base+CostCall+CostBranch)
		tb.addExit(s, ExitFault, 1, pc, false, base+CostCall) // raw pop fault
		// Exit sentinel: the interpreter halts with RIP still at the
		// RET itself (it returns before updating RIP).
		tb.addExit(s, ExitHalt, 0, pc, false, base+CostCall)
		tb.aux[s].contID = tb.addExit(s, ExitDyn, 0, 0, true, base+CostCall+CostBranch)
		return true, true

	case isa.RTCALL:
		if v.InlineCheck == nil {
			return false, false
		}
		idx, arg := SplitRTCallImm(in.Imm)
		plan := v.InlineCheck(v, pc, idx, arg)
		if plan == nil {
			return false, false // not an instrumented check: stay in tier 0
		}
		s := tb.addStep(pc, in, next, base)
		tb.info.Steps[s].Check = &TraceCheck{Arg: arg, ImportIdx: idx, MaxCost: plan.MaxCost}
		tb.aux[s].plan = plan
		// An aborting detection (or corrupt-meta error) terminates the
		// run; the handler's dynamic cycles are charged by the closure.
		tb.addExit(s, ExitFault, 1, next, false, base)

	default:
		if !in.Op.IsCondJump() {
			return false, false
		}
		tt := next + uint64(in.Imm)
		var onTaken bool
		switch {
		case tt == tb.entry:
			onTaken = true // loop back edge
		case b.taken != nil && b.takenPC == tt:
			onTaken = true // chain says taken
		case next == tb.entry:
			onTaken = false
		case b.fall != nil:
			onTaken = false // chain says fall-through
		default:
			return false, false // no prediction signal: end the trace here
		}
		if onTaken {
			s := tb.addStep(pc, in, tt, base+CostBranch)
			tb.aux[s].onTaken = true
			tb.addExit(s, ExitSide, 0, next, false, base)
		} else {
			s := tb.addStep(pc, in, next, base)
			tb.addExit(s, ExitSide, 0, tt, false, base+CostBranch)
		}
	}
	return true, false
}

// analyzeTrace derives the compilation plan for the trace rooted at
// root, or nil when the trace is not worth compiling (too short, or its
// first instruction is unsupported).
func (v *VM) analyzeTrace(root *block) (*TraceInfo, []stepAux) {
	if len(root.insts) == 0 {
		return nil, nil
	}
	entry := root.insts[0].pc
	tb := &traceBuilder{
		v:     v,
		info:  &TraceInfo{EntryPC: entry},
		entry: entry,
	}
	b := root
walk:
	for {
		for i := range b.insts {
			bi := &b.insts[i]
			if len(tb.info.Steps) >= maxTraceInsts {
				tb.terminate(bi.pc)
				break walk
			}
			ok, done := tb.step(b, bi.pc, &bi.in)
			if !ok {
				if len(tb.info.Steps) == 0 {
					return nil, nil
				}
				tb.terminate(bi.pc)
				break walk
			}
			if done {
				break walk
			}
		}
		succ := tb.info.Steps[len(tb.info.Steps)-1].Next
		if succ == entry {
			tb.loopExit()
			break walk
		}
		switch {
		case b.fall != nil && succ == b.fallPC:
			b = b.fall
		case b.taken != nil && succ == b.takenPC:
			b = b.taken
		default:
			tb.terminate(succ)
			break walk
		}
	}
	if len(tb.info.Steps) < minTraceInsts {
		return nil, nil
	}
	markDeadFlags(tb.info)
	finalizeCosts(tb.info)
	return tb.info, tb.aux
}

// markDeadFlags runs per-flag backward liveness over the trace and sets
// FlagsElided on steps whose entire may-write set is dead. Liveness is
// forced to all-live after the last step and after any step with a side
// exit (both resume in the interpreter with materialized flags); fault
// exits terminate the run and do not force liveness.
func markDeadFlags(info *TraceInfo) {
	sideAt := make([]bool, len(info.Steps))
	for i := range info.Exits {
		if info.Exits[i].Kind == ExitSide {
			sideAt[info.Exits[i].Step] = true
		}
	}
	live := fAll
	for i := len(info.Steps) - 1; i >= 0; i-- {
		st := &info.Steps[i]
		if i == len(info.Steps)-1 || sideAt[i] {
			live = fAll
		}
		if mw := jitFlagsMayWrite(&st.Inst); mw != 0 && live&mw == 0 {
			st.FlagsElided = true
		}
		live = (live &^ jitFlagsKilled(&st.Inst)) | jitFlagsRead(&st.Inst)
	}
}

// finalizeCosts turns per-exit step charges into absolute path totals
// and computes MaxCost, the worst-case cycles one full iteration can
// charge (static per-step maxima plus every check's dynamic bound).
func finalizeCosts(info *TraceInfo) {
	n := len(info.Steps)
	stepStart := make([]uint64, n+1)
	perStepMax := make([]uint64, n)
	for i := range info.Steps {
		stepStart[i+1] = stepStart[i] + info.Steps[i].Cost
		perStepMax[i] = info.Steps[i].Cost
	}
	for i := range info.Exits {
		e := &info.Exits[i]
		if e.Cycles > perStepMax[e.Step] {
			perStepMax[e.Step] = e.Cycles
		}
		e.Cycles += stepStart[e.Step]
	}
	var max uint64
	for i := range info.Steps {
		max += perStepMax[i]
		if c := info.Steps[i].Check; c != nil {
			max += c.MaxCost
		}
	}
	info.MaxCost = max
}
