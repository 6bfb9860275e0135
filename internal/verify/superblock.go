package verify

// Superblock certifier (DESIGN.md §14). The trace compiler is two-phase:
// analyzeTrace derives a declarative plan (vm.TraceInfo) and emitTrace
// compiles closures from the plan and nothing else. That makes the plan
// the certifiable artifact: if every claim in it is consistent with the
// single-step semantics, the compiled trace is equivalent to the
// interpreter on every path.
//
// This file re-derives every claim independently of internal/vm's
// analyzer — it re-decodes each step's instruction from guest memory,
// recomputes the per-step cost model and the full exit table (kind,
// stage, resume RIP, retired count, cycle prefix) from its own per-op
// tables, re-resolves every fused check through VM.InlineCheck and
// compares its site identity and cost bound, and re-proves each
// flag-elision claim with its own backward liveness. The tables here
// intentionally duplicate the interpreter's documented semantics rather
// than calling into the analyzer: the point is two independent
// derivations that must agree.

import (
	"redfat/internal/isa"
	"redfat/internal/vm"
)

// Superblocks certifies every trace plan the VM has compiled so far.
// Counts accumulate in the report; any disagreement with the re-derived
// model is a KindTrace violation anchored at the offending step's PC.
func Superblocks(v *vm.VM) *Report {
	rep := &Report{}
	for _, info := range v.CompiledTraces() {
		certifyTrace(v, info, rep)
	}
	return rep
}

// CertifyTrace certifies a single trace plan against the VM it was
// compiled for (exported so tests can certify mutated copies).
func CertifyTrace(v *vm.VM, info *vm.TraceInfo) *Report {
	rep := &Report{}
	certifyTrace(v, info, rep)
	return rep
}

func certifyTrace(v *vm.VM, info *vm.TraceInfo, rep *Report) {
	rep.Traces++
	rep.TraceSteps += len(info.Steps)
	if len(info.Steps) == 0 {
		rep.violate(KindTrace, info.EntryPC, "trace has no steps")
		return
	}
	if info.Steps[0].PC != info.EntryPC {
		rep.violate(KindTrace, info.EntryPC,
			"trace entry %#x is not the first step's PC %#x", info.EntryPC, info.Steps[0].PC)
	}
	models := make([]sbStep, len(info.Steps))
	ok := true
	for i := range info.Steps {
		st := &info.Steps[i]
		certifyDecode(v, st, rep)
		certifyCheck(v, st, rep)
		m, mok := sbModel(v, info, i, rep)
		if !mok {
			ok = false
			continue
		}
		models[i] = m
		if m.terminal && i != len(info.Steps)-1 {
			rep.violate(KindTrace, st.PC, "trace continues past terminal %s", st.Inst.Op)
			ok = false
		}
		if st.Next != m.next {
			rep.violate(KindTrace, st.PC,
				"step continues at %#x, single-step model derives %#x", st.Next, m.next)
			ok = false
		}
		if st.Cost != m.cost {
			rep.violate(KindTrace, st.PC,
				"step charges %d cycles, single-step model charges %d", st.Cost, m.cost)
			ok = false
		}
		if i+1 < len(info.Steps) && st.Next != info.Steps[i+1].PC {
			rep.violate(KindTrace, st.PC,
				"step continues at %#x but the next step is at %#x", st.Next, info.Steps[i+1].PC)
			ok = false
		}
	}
	if ok {
		certifyExits(info, models, rep)
		certifyMaxCost(info, models, rep)
	}
	certifyFlags(info, rep)
}

// certifyDecode re-decodes the step's instruction from guest memory: a
// compiled trace must embed exactly what the current code bytes say
// (FlushICache discards traces over modified code, so a mismatch means
// the plan and the image disagree).
func certifyDecode(v *vm.VM, st *vm.TraceStep, rep *Report) {
	var buf [isa.MaxInstLen]byte
	n := v.Mem.Fetch(st.PC, buf[:])
	if n == 0 {
		rep.violate(KindTrace, st.PC, "compiled step is not in executable memory")
		return
	}
	in, err := isa.Decode(buf[:n])
	if err != nil {
		rep.violate(KindTrace, st.PC, "compiled step does not decode: %v", err)
		return
	}
	if in != st.Inst {
		rep.violate(KindTrace, st.PC,
			"compiled %s differs from guest memory (%s)", st.Inst.String(), in.String())
	}
}

// certifyCheck re-resolves a fused check step's plan through the VM's
// check resolver and requires the recorded cost bound to match it. A
// fused RTCALL with no check record is a dropped check: the emitter
// would compile the call as a plain step and skip the runtime check
// entirely.
func certifyCheck(v *vm.VM, st *vm.TraceStep, rep *Report) {
	if st.Inst.Op != isa.RTCALL {
		if st.Check != nil {
			rep.violate(KindTrace, st.PC, "non-RTCALL step carries a check record")
		}
		return
	}
	idx, arg := vm.SplitRTCallImm(st.Inst.Imm)
	c := st.Check
	if c == nil {
		rep.violate(KindTrace, st.PC, "fused RTCALL has no check record (dropped check)")
		return
	}
	rep.TraceChecks++
	if c.ImportIdx != idx || c.Arg != arg {
		rep.violate(KindTrace, st.PC,
			"check record names site %d/%d, the RTCALL encodes %d/%d", c.ImportIdx, c.Arg, idx, arg)
	}
	if v.InlineCheck == nil {
		rep.violate(KindTrace, st.PC, "fused check but the VM has no check resolver")
		return
	}
	plan := v.InlineCheck(v, st.PC, idx, arg)
	if plan == nil {
		rep.violate(KindTrace, st.PC, "RTCALL does not resolve to an instrumented check")
		return
	}
	if plan.MaxCost != c.MaxCost {
		rep.violate(KindTrace, st.PC,
			"check record bounds site %d at %d cycles, the runtime's plan at %d", c.Arg, c.MaxCost, plan.MaxCost)
	}
}

// sbExit is one re-derived exit of a step. extra holds only the exiting
// step's own charge on that path; the prefix of the preceding steps is
// added when comparing against the plan's absolute totals.
type sbExit struct {
	kind    vm.ExitKind
	stage   uint8
	rip     uint64
	dynamic bool
	extra   uint64
}

// sbStep is the re-derivation of one trace step: its continue-path cost
// and successor, its exits in chronological order, and whether it must
// terminate the trace (dynamic control flow or halt).
type sbStep struct {
	cost     uint64
	next     uint64
	exits    []sbExit
	terminal bool
}

// sbModel recomputes one step's cost and exit structure from the
// instruction alone, mirroring the interpreter's documented charge
// points: each memory access charges CostMem before it can fault, a
// compute charge (CostMul) lands after the load, and branch/call/div
// charges follow the interpreter's order exactly.
func sbModel(v *vm.VM, info *vm.TraceInfo, i int, rep *Report) (sbStep, bool) {
	st := &info.Steps[i]
	in := &st.Inst
	pc := st.PC
	next := pc + uint64(in.Len)
	base := uint64(vm.CostInst)
	m := sbStep{next: next}
	bad := func(format string, args ...any) (sbStep, bool) {
		rep.violate(KindTrace, pc, format, args...)
		return m, false
	}
	fault := func(stage uint8, rip, extra uint64) {
		m.exits = append(m.exits, sbExit{kind: vm.ExitFault, stage: stage, rip: rip, extra: extra})
	}

	switch in.Op {
	case isa.NOP, isa.CQO, isa.LEA, isa.LPAD:
		m.cost = base

	case isa.XCHG:
		if in.Form != isa.FRR {
			return bad("unsupported %s form compiled into a trace", in.Op)
		}
		m.cost = base

	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX,
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL:
		var mul uint64
		if in.Op == isa.IMUL {
			mul = vm.CostMul
		}
		switch in.Form {
		case isa.FRR, isa.FRI:
			m.cost = base + mul
		case isa.FRM:
			m.cost = base + vm.CostMem + mul
			fault(1, pc, base+vm.CostMem)
		case isa.FMR, isa.FMI:
			switch in.Op {
			case isa.MOV, isa.CMP, isa.TEST: // plain store / load only
				m.cost = base + vm.CostMem
				fault(1, pc, base+vm.CostMem)
			case isa.MOVABS, isa.MOVZX, isa.MOVSX:
				return bad("unsupported %s form compiled into a trace", in.Op)
			default: // read-modify-write
				m.cost = base + 2*vm.CostMem + mul
				fault(1, pc, base+vm.CostMem)
				fault(2, pc, base+2*vm.CostMem+mul)
			}
		default:
			return bad("unsupported %s form compiled into a trace", in.Op)
		}

	case isa.PUSH:
		switch in.Form {
		case isa.FR:
			m.cost = base + vm.CostMem
			fault(1, pc, base)
		case isa.FM:
			m.cost = base + 2*vm.CostMem
			fault(1, pc, base+vm.CostMem)
			fault(2, pc, base+vm.CostMem)
		default:
			return bad("unsupported %s form compiled into a trace", in.Op)
		}

	case isa.PUSHF, isa.POPF:
		m.cost = base + vm.CostMem
		fault(1, pc, base)

	case isa.POP:
		switch in.Form {
		case isa.FR:
			m.cost = base + vm.CostMem
			fault(1, pc, base)
		case isa.FM:
			m.cost = base + 2*vm.CostMem
			fault(1, pc, base)
			fault(2, pc, base+2*vm.CostMem)
		default:
			return bad("unsupported %s form compiled into a trace", in.Op)
		}

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		if in.Form == isa.FR {
			m.cost = base
			break
		}
		m.cost = base + 2*vm.CostMem
		fault(1, pc, base+vm.CostMem)
		fault(2, pc, base+2*vm.CostMem)

	case isa.SHL, isa.SHR, isa.SAR:
		m.cost = base

	case isa.UDIV, isa.IDIV:
		m.cost = base + vm.CostDiv
		fault(1, pc, base+vm.CostDiv)

	case isa.HLT:
		m.cost = base
		m.terminal = true
		m.exits = append(m.exits, sbExit{kind: vm.ExitHalt, rip: next, extra: base})

	case isa.TRAP:
		target, found := v.PatchTable[pc]
		if !found {
			return bad("TRAP step has no patch-table entry")
		}
		m.cost = base + vm.CostTrap
		m.next = target

	case isa.JMP:
		switch in.Form {
		case isa.FRel8, isa.FRel32:
			m.cost = base + vm.CostBranch
			m.next = next + uint64(in.Imm)
		case isa.FR:
			m.cost = base + vm.CostBranch
			m.next = 0
			m.terminal = true
			m.exits = append(m.exits, sbExit{kind: vm.ExitDyn, dynamic: true, extra: m.cost})
		case isa.FM:
			m.cost = base + vm.CostMem + vm.CostBranch
			m.next = 0
			m.terminal = true
			fault(1, pc, base+vm.CostMem)
			m.exits = append(m.exits, sbExit{kind: vm.ExitDyn, dynamic: true, extra: m.cost})
		default:
			return bad("unsupported %s form compiled into a trace", in.Op)
		}

	case isa.CALL:
		switch in.Form {
		case isa.FRel32:
			m.cost = base + vm.CostCall + vm.CostBranch
			m.next = next + uint64(in.Imm)
			fault(1, pc, base+vm.CostCall)
		case isa.FR:
			m.cost = base + vm.CostCall + vm.CostBranch
			m.next = 0
			m.terminal = true
			fault(1, pc, base+vm.CostCall)
			m.exits = append(m.exits, sbExit{kind: vm.ExitDyn, dynamic: true, extra: m.cost})
		case isa.FM:
			m.cost = base + vm.CostCall + vm.CostMem + vm.CostBranch
			m.next = 0
			m.terminal = true
			fault(1, pc, base+vm.CostCall+vm.CostMem)
			fault(2, pc, base+vm.CostCall+vm.CostMem)
			m.exits = append(m.exits, sbExit{kind: vm.ExitDyn, dynamic: true, extra: m.cost})
		default:
			return bad("unsupported %s form compiled into a trace", in.Op)
		}

	case isa.RET:
		m.cost = base + vm.CostCall + vm.CostBranch
		m.next = 0
		m.terminal = true
		fault(1, pc, base+vm.CostCall)
		// Exit sentinel: the interpreter halts with RIP still at the RET.
		m.exits = append(m.exits, sbExit{kind: vm.ExitHalt, rip: pc, extra: base + vm.CostCall})
		m.exits = append(m.exits, sbExit{kind: vm.ExitDyn, dynamic: true, extra: m.cost})

	case isa.RTCALL:
		m.cost = base
		fault(1, next, base)

	default:
		if !in.Op.IsCondJump() {
			return bad("unsupported %s compiled into a trace", in.Op)
		}
		tt := next + uint64(in.Imm)
		taken := st.Next == tt
		if in.Imm == 0 {
			// Both directions resume at the same PC; the claimed cost
			// identifies which one the plan predicted.
			taken = st.Cost == base+vm.CostBranch
		}
		if taken {
			m.cost = base + vm.CostBranch
			m.next = tt
			m.exits = append(m.exits, sbExit{kind: vm.ExitSide, rip: next, extra: base})
		} else {
			if st.Next != next {
				return bad("conditional continues at %#x, neither %#x nor %#x", st.Next, next, tt)
			}
			m.cost = base
			m.next = next
			m.exits = append(m.exits, sbExit{kind: vm.ExitSide, rip: tt, extra: base + vm.CostBranch})
		}
	}
	return m, true
}

// certifyExits rebuilds the full exit table from the per-step models —
// chronological within a step, steps in order, the terminal fall/loop
// exit last — and requires the plan's table to match it exactly: kind,
// stage, resume RIP, dynamic bit, retired count, and the absolute cycle
// total materialized on that path.
func certifyExits(info *vm.TraceInfo, models []sbStep, rep *Report) {
	n := len(info.Steps)
	start := make([]uint64, n+1)
	for i := range models {
		start[i+1] = start[i] + models[i].cost
	}
	var want []vm.TraceExit
	for i := range models {
		for _, e := range models[i].exits {
			want = append(want, vm.TraceExit{
				Step: i, Kind: e.kind, Stage: e.stage, RIP: e.rip, Dynamic: e.dynamic,
				Retired: uint64(i + 1), Cycles: start[i] + e.extra,
			})
		}
	}
	if last := &models[n-1]; !last.terminal {
		kind := vm.ExitFall
		if info.Steps[n-1].Next == info.EntryPC {
			kind = vm.ExitLoop
		}
		want = append(want, vm.TraceExit{
			Step: n - 1, Kind: kind, RIP: info.Steps[n-1].Next,
			Retired: uint64(n), Cycles: start[n-1] + last.cost,
		})
	}
	if len(info.Exits) != len(want) {
		rep.violate(KindTrace, info.EntryPC,
			"trace has %d exits, single-step model derives %d", len(info.Exits), len(want))
		return
	}
	for i := range want {
		if info.Exits[i] != want[i] {
			rep.violate(KindTrace, info.Steps[want[i].Step].PC,
				"exit %d materializes %+v, single-step model derives %+v", i, info.Exits[i], want[i])
		}
	}
}

// certifyMaxCost recomputes the worst-case charge of one full iteration
// — per-step maxima over the continue and every fault path, plus each
// fused check's dynamic bound — which gates trace entry against the
// cycle budget. An understated bound would let the compiled trace run
// past the abort point.
func certifyMaxCost(info *vm.TraceInfo, models []sbStep, rep *Report) {
	var total uint64
	for i := range models {
		worst := models[i].cost
		for _, e := range models[i].exits {
			if e.extra > worst {
				worst = e.extra
			}
		}
		total += worst
		if c := info.Steps[i].Check; c != nil {
			total += c.MaxCost
		}
	}
	if info.MaxCost != total {
		rep.violate(KindTrace, info.EntryPC,
			"trace bounds one iteration at %d cycles, single-step model derives %d", info.MaxCost, total)
	}
}

// Per-flag liveness masks, local to the certifier.
const (
	sbZ uint8 = 1 << iota
	sbS
	sbC
	sbO

	sbAll = sbZ | sbS | sbC | sbO
)

// sbFlagNames renders a flag mask for violation details.
func sbFlagNames(mask uint8) string {
	names := [...]struct {
		bit  uint8
		name string
	}{{sbZ, "Z"}, {sbS, "S"}, {sbC, "C"}, {sbO, "O"}}
	out := ""
	for _, f := range names {
		if mask&f.bit != 0 {
			out += f.name
		}
	}
	return out
}

// sbCondReads returns the flags a conditional jump observes.
func sbCondReads(op isa.Op) uint8 {
	switch op {
	case isa.JE, isa.JNE:
		return sbZ
	case isa.JL, isa.JGE:
		return sbS | sbO
	case isa.JLE, isa.JG:
		return sbZ | sbS | sbO
	case isa.JB, isa.JAE:
		return sbC
	case isa.JBE, isa.JA:
		return sbC | sbZ
	case isa.JS, isa.JNS:
		return sbS
	case isa.JO, isa.JNO:
		return sbO
	}
	return 0
}

// sbFlagsRead returns the flags an on-trace instruction observes.
func sbFlagsRead(in *isa.Inst) uint8 {
	if in.Op.IsCondJump() {
		return sbCondReads(in.Op)
	}
	if in.Op == isa.PUSHF {
		return sbAll
	}
	return 0
}

// sbFlagsKilled returns the flags an instruction unconditionally
// overwrites on its continue path.
func sbFlagsKilled(in *isa.Inst) uint8 {
	switch in.Op {
	case isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL, isa.NEG, isa.POPF:
		return sbAll
	case isa.INC, isa.DEC:
		return sbZ | sbS | sbO // CF preserved
	case isa.SHL, isa.SHR, isa.SAR:
		if in.Form == isa.FRI && uint64(in.Imm)&63 != 0 {
			return sbAll
		}
		return 0
	}
	return 0
}

// sbFlagsMayWrite returns the flags an instruction might write: the
// kill set, except that a CL-count shift may write without being
// guaranteed to.
func sbFlagsMayWrite(in *isa.Inst) uint8 {
	if in.Op == isa.SHL || in.Op == isa.SHR || in.Op == isa.SAR {
		if in.Form == isa.FRI {
			if uint64(in.Imm)&63 != 0 {
				return sbAll
			}
			return 0
		}
		return sbAll
	}
	return sbFlagsKilled(in)
}

// certifyFlags re-proves every flag-elision claim with its own backward
// per-flag liveness. Flags are forced live at the trace end and at every
// conditional jump (its side exit resumes in the interpreter); fault
// exits terminate the run, so they force nothing.
func certifyFlags(info *vm.TraceInfo, rep *Report) {
	live := sbAll
	for i := len(info.Steps) - 1; i >= 0; i-- {
		st := &info.Steps[i]
		if i == len(info.Steps)-1 || st.Inst.Op.IsCondJump() {
			live = sbAll
		}
		if st.FlagsElided {
			if mw := sbFlagsMayWrite(&st.Inst); mw == 0 {
				rep.violate(KindTrace, st.PC, "flag elision claimed on an instruction that writes no flags")
			} else if obs := live & mw; obs != 0 {
				rep.violate(KindTrace, st.PC,
					"flag update elided but %s observed before being overwritten", sbFlagNames(obs))
			}
		}
		live = (live &^ sbFlagsKilled(&st.Inst)) | sbFlagsRead(&st.Inst)
	}
}
