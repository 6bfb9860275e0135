package vm

// Phase one of the superblock compiler: derive a declarative TraceInfo
// from a chained block sequence. analyzeTrace walks the chain rooted at
// a hot block, mirrors the interpreter per instruction path (its cycle
// charges, including the partial charges of every fault point, and the
// load/store/branch/patch counters it bumps), predicts conditional
// branches from the chain slots, and then runs one optimization
// analysis over the straight line:
//
//   - markDeadFlags: per-flag backward liveness over isa's flag table
//     (the instruction's own effects: inside a trace every successor of
//     a CALL, RTCALL or TRAP is an explicit step). A step's
//     condition-flag update is elided when no flag it may write is
//     observed (by a conditional jump or PUSHF) before being
//     unconditionally overwritten, on any path that materializes flags.
//     Flags are forced live at the trace end and at every side exit —
//     those resume in the interpreter — but not at fault exits, where
//     the run terminates and flags are unobservable (nothing outside the
//     VM reads them).
//
// Fused check sites are recorded as they are met; each runs its full
// check.
//
// Everything the phase decides is recorded in TraceInfo, stepAux and the
// per-exit counter deltas; the emitter compiles from the record alone,
// and internal/verify re-derives the TraceInfo independently
// (DESIGN.md §14).

import "redfat/internal/isa"

// stepAux is the emitter-facing side channel of one analyzed step: data
// the closures and the telemetry replay need that is not part of the
// certifiable TraceInfo contract (the resolved check plan, exit-id
// bookkeeping, the continue path's counter delta).
type stepAux struct {
	plan    *JITCheck // resolved plan of a fused check step
	exits   []int     // 1-based exit ids of this step, in chronological order
	contID  int       // terminal exit id returned on the last step's continue path
	tel     stepTel   // counters the interpreter bumps on the continue path
	onTaken bool      // conditional branch predicted taken
}

// traceBuilder accumulates the plan of one trace during the chain walk:
// the certifiable TraceInfo plus the side channel the emitter needs.
type traceBuilder struct {
	v       *VM
	info    *TraceInfo
	aux     []stepAux
	exitTel []stepTel // per exit: the counters its exiting step bumped
	entry   uint64
}

// Counter deltas of one path through a step, exactly as the interpreter
// counts: a load or store through v.load/v.store (raw stack pushes and
// pops are not counted), a taken branch through v.branchTo, and a TRAP
// dispatch. A fault stage counts the access that faulted.
var (
	noTel       stepTel
	loadTel     = stepTel{loads: 1}
	storeTel    = stepTel{stores: 1}
	rmwTel      = stepTel{loads: 1, stores: 1}
	branchTel   = stepTel{branches: 1}
	loadBrTel   = stepTel{loads: 1, branches: 1}
	patchHitTel = stepTel{patch: 1}
)

// addStep appends one step, its continue-path cost and counter delta,
// returning the step index.
func (tb *traceBuilder) addStep(pc uint64, in *isa.Inst, next, cost uint64, tel stepTel) int {
	tb.info.Steps = append(tb.info.Steps, TraceStep{
		PC: pc, Inst: *in, Next: next, Cost: cost,
	})
	tel.op = in.Op
	tb.aux = append(tb.aux, stepAux{tel: tel})
	return len(tb.info.Steps) - 1
}

// addExit appends one exit for step with the exiting step's own charge
// and counter delta on that path. Cycles temporarily holds only that
// charge; finalizeCosts adds the prefix sum of the preceding steps.
func (tb *traceBuilder) addExit(step int, kind ExitKind, stage uint8, rip uint64, dyn bool, extra uint64, tel stepTel) int {
	tb.info.Exits = append(tb.info.Exits, TraceExit{
		Step: step, Kind: kind, Stage: stage, RIP: rip, Dynamic: dyn,
		Retired: uint64(step + 1), Cycles: extra,
	})
	tel.op = tb.info.Steps[step].Inst.Op
	tb.exitTel = append(tb.exitTel, tel)
	id := len(tb.info.Exits)
	tb.aux[step].exits = append(tb.aux[step].exits, id)
	return id
}

// contExit adds step's terminal exit of kind, which leaves along the
// continue path (its full cost and counters) and resumes at rip.
func (tb *traceBuilder) contExit(step int, kind ExitKind, rip uint64, dyn bool) {
	tb.aux[step].contID = tb.addExit(step, kind, 0, rip, dyn, tb.info.Steps[step].Cost, tb.aux[step].tel)
}

// terminate ends the trace with a fall exit resuming at rip (always the
// last step's static successor).
func (tb *traceBuilder) terminate(rip uint64) {
	tb.contExit(len(tb.info.Steps)-1, ExitFall, rip, false)
}

// loopExit ends the trace with a back edge to its own entry.
func (tb *traceBuilder) loopExit() {
	tb.contExit(len(tb.info.Steps)-1, ExitLoop, tb.entry, false)
}

// step analyzes one instruction, mirroring the interpreter's cost, fault
// structure and counters exactly: it is the one place that lists every
// path through an instruction with its cycles, fault stage and counter
// delta. It reports ok=false when the instruction cannot be compiled
// (the trace then ends just before it) and done=true when the
// instruction itself terminates the trace (dynamic control flow or
// halt).
func (tb *traceBuilder) step(b *block, pc uint64, in *isa.Inst) (ok, done bool) {
	v := tb.v
	base := uint64(CostInst)
	next := pc + uint64(in.Len)
	// Indirect transfers end the trace before them while landing-pad
	// enforcement or the escape monitor is on: both live in the
	// interpreter's checkIndirect. Host-side only: the trace boundary
	// never changes guest cycles.
	indirectChecked := v.LPADCheck || v.IndirectTargets != nil

	switch in.Op {
	case isa.NOP, isa.CQO, isa.LPAD, isa.LEA:
		tb.addStep(pc, in, next, base, noTel)

	case isa.XCHG:
		if in.Form != isa.FRR {
			return false, false
		}
		tb.addStep(pc, in, next, base, noTel)

	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX,
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL:
		var mul uint64
		if in.Op == isa.IMUL {
			mul = CostMul
		}
		switch in.Form {
		case isa.FRR, isa.FRI:
			tb.addStep(pc, in, next, base+mul, noTel)
		case isa.FRM:
			s := tb.addStep(pc, in, next, base+CostMem+mul, loadTel)
			// The load charges CostMem before faulting; IMUL's CostMul
			// is charged by the compute after the load, so a load fault
			// excludes it.
			tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, loadTel)
		case isa.FMR, isa.FMI:
			switch in.Op {
			case isa.MOV: // plain store
				s := tb.addStep(pc, in, next, base+CostMem, storeTel)
				tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, storeTel)
			case isa.CMP, isa.TEST: // load only
				s := tb.addStep(pc, in, next, base+CostMem, loadTel)
				tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, loadTel)
			case isa.MOVABS, isa.MOVZX, isa.MOVSX:
				return false, false
			default: // read-modify-write
				s := tb.addStep(pc, in, next, base+2*CostMem+mul, rmwTel)
				tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, loadTel)
				// Store fault: load and compute (incl. CostMul) already
				// charged, plus the store's own CostMem.
				tb.addExit(s, ExitFault, 2, pc, false, base+2*CostMem+mul, rmwTel)
			}
		default:
			return false, false
		}

	case isa.PUSH:
		switch in.Form {
		case isa.FR:
			s := tb.addStep(pc, in, next, base+CostMem, noTel)
			// push itself is a raw store; the explicit CostMem is only
			// charged after it succeeds.
			tb.addExit(s, ExitFault, 1, pc, false, base, noTel)
		case isa.FM:
			s := tb.addStep(pc, in, next, base+2*CostMem, loadTel)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, loadTel) // load fault
			tb.addExit(s, ExitFault, 2, pc, false, base+CostMem, loadTel) // push fault
		default:
			return false, false
		}

	case isa.PUSHF, isa.POPF:
		s := tb.addStep(pc, in, next, base+CostMem, noTel)
		tb.addExit(s, ExitFault, 1, pc, false, base, noTel) // raw push/pop fault

	case isa.POP:
		switch in.Form {
		case isa.FR:
			s := tb.addStep(pc, in, next, base+CostMem, noTel)
			tb.addExit(s, ExitFault, 1, pc, false, base, noTel) // raw pop fault
		case isa.FM:
			s := tb.addStep(pc, in, next, base+2*CostMem, storeTel)
			tb.addExit(s, ExitFault, 1, pc, false, base, noTel) // raw pop fault
			// Store fault: pop's explicit CostMem plus the store's.
			tb.addExit(s, ExitFault, 2, pc, false, base+2*CostMem, storeTel)
		default:
			return false, false
		}

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		if in.Form == isa.FR {
			tb.addStep(pc, in, next, base, noTel)
			break
		}
		s := tb.addStep(pc, in, next, base+2*CostMem, rmwTel)
		tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, loadTel)
		tb.addExit(s, ExitFault, 2, pc, false, base+2*CostMem, rmwTel)

	case isa.SHL, isa.SHR, isa.SAR:
		tb.addStep(pc, in, next, base, noTel)

	case isa.UDIV, isa.IDIV:
		s := tb.addStep(pc, in, next, base+CostDiv, noTel)
		tb.addExit(s, ExitFault, 1, pc, false, base+CostDiv, noTel)

	case isa.HLT:
		s := tb.addStep(pc, in, next, base, noTel)
		tb.contExit(s, ExitHalt, next, false)
		return true, true

	case isa.TRAP:
		target, found := v.PatchTable[pc]
		if !found {
			return false, false // executing it would be a VM error
		}
		tb.addStep(pc, in, target, base+CostTrap, patchHitTel)

	case isa.JMP:
		switch in.Form {
		case isa.FRel8, isa.FRel32:
			tb.addStep(pc, in, next+uint64(in.Imm), base+CostBranch, branchTel)
		case isa.FR:
			if indirectChecked {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostBranch, branchTel)
			tb.contExit(s, ExitDyn, 0, true)
			return true, true
		case isa.FM:
			if indirectChecked {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostMem+CostBranch, loadBrTel)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostMem, loadTel)
			tb.contExit(s, ExitDyn, 0, true)
			return true, true
		default:
			return false, false
		}

	case isa.CALL:
		switch in.Form {
		case isa.FRel32:
			s := tb.addStep(pc, in, next+uint64(in.Imm), base+CostCall+CostBranch, branchTel)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostCall, noTel) // push fault
		case isa.FR:
			if indirectChecked {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostCall+CostBranch, branchTel)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostCall, noTel)
			tb.contExit(s, ExitDyn, 0, true)
			return true, true
		case isa.FM:
			if indirectChecked {
				return false, false
			}
			s := tb.addStep(pc, in, 0, base+CostCall+CostMem+CostBranch, loadBrTel)
			tb.addExit(s, ExitFault, 1, pc, false, base+CostCall+CostMem, loadTel) // load fault
			tb.addExit(s, ExitFault, 2, pc, false, base+CostCall+CostMem, loadTel) // push fault
			tb.contExit(s, ExitDyn, 0, true)
			return true, true
		default:
			return false, false
		}

	case isa.RET:
		s := tb.addStep(pc, in, 0, base+CostCall+CostBranch, branchTel)
		tb.addExit(s, ExitFault, 1, pc, false, base+CostCall, noTel) // raw pop fault
		// Exit sentinel: the interpreter halts with RIP still at the
		// RET itself (it returns before updating RIP), and takes no
		// branch.
		tb.addExit(s, ExitHalt, 0, pc, false, base+CostCall, noTel)
		tb.contExit(s, ExitDyn, 0, true)
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
		s := tb.addStep(pc, in, next, base, noTel)
		tb.info.Steps[s].Check = &TraceCheck{Arg: arg, ImportIdx: idx, MaxCost: plan.MaxCost}
		tb.aux[s].plan = plan
		// An aborting detection (or corrupt-meta error) terminates the
		// run; the handler's dynamic cycles are charged by the closure.
		tb.addExit(s, ExitFault, 1, next, false, base, noTel)

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
			s := tb.addStep(pc, in, tt, base+CostBranch, branchTel)
			tb.aux[s].onTaken = true
			tb.addExit(s, ExitSide, 0, next, false, base, noTel)
		} else {
			s := tb.addStep(pc, in, next, base, noTel)
			tb.addExit(s, ExitSide, 0, tt, false, base+CostBranch, branchTel)
		}
	}
	return true, false
}

// analyzeTrace derives the compilation plan for the trace rooted at
// root, or nil when the trace is not worth compiling (too short, or its
// first instruction is unsupported).
func (v *VM) analyzeTrace(root *block) *traceBuilder {
	if len(root.insts) == 0 {
		return nil
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
					return nil
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
		return nil
	}
	markDeadFlags(tb.info)
	finalizeCosts(tb.info)
	return tb
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
	live := isa.AllFlags
	for i := len(info.Steps) - 1; i >= 0; i-- {
		st := &info.Steps[i]
		if i == len(info.Steps)-1 || sideAt[i] {
			live = isa.AllFlags
		}
		if mw := isa.FlagsMayWrite(&st.Inst); mw != 0 && live&mw == 0 {
			st.FlagsElided = true
		}
		live = (live &^ isa.FlagsKilled(&st.Inst)) | isa.FlagsRead(&st.Inst)
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
