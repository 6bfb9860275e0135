package vm

import (
	"fmt"

	"redfat/internal/isa"
	"redfat/internal/obs"
)

func widthMask(w uint16) uint64 {
	if w >= 8 {
		return ^uint64(0)
	}
	return 1<<(8*w) - 1
}

func signBit(v uint64, w uint16) bool {
	return v&(1<<(8*w-1)) != 0
}

// addFlags computes flags for a + b = r at width w. The w == 8 fast
// path avoids the masking entirely (the mask is all-ones); it computes
// the same four booleans as the general path.
func addFlags(a, b, r uint64, w uint16) Flags {
	if w == 8 {
		return Flags{
			ZF: r == 0,
			SF: int64(r) < 0,
			CF: r < a,
			OF: int64((a^r)&(b^r)) < 0,
		}
	}
	mask := widthMask(w)
	a, b, r = a&mask, b&mask, r&mask
	return Flags{
		ZF: r == 0,
		SF: signBit(r, w),
		CF: r < a,
		OF: signBit((a^r)&(b^r), w),
	}
}

// subFlags computes flags for a - b = r at width w (same w == 8 fast
// path as addFlags).
func subFlags(a, b, r uint64, w uint16) Flags {
	if w == 8 {
		return Flags{
			ZF: r == 0,
			SF: int64(r) < 0,
			CF: a < b,
			OF: int64((a^b)&(a^r)) < 0,
		}
	}
	mask := widthMask(w)
	a, b, r = a&mask, b&mask, r&mask
	return Flags{
		ZF: r == 0,
		SF: signBit(r, w),
		CF: a < b,
		OF: signBit((a^b)&(a^r), w),
	}
}

// logicFlags computes flags for logical operations (CF=OF=0).
func logicFlags(r uint64, w uint16) Flags {
	if w == 8 {
		return Flags{ZF: r == 0, SF: int64(r) < 0}
	}
	mask := widthMask(w)
	r &= mask
	return Flags{ZF: r == 0, SF: signBit(r, w)}
}

func (v *VM) condition(op isa.Op) bool { return v.Flags.cond(op) }

// cond evaluates a conditional-jump predicate against the flag state. It
// is the shared implementation behind the interpreter's dispatch and the
// JIT's emitted branch closures, so the two tiers cannot diverge.
func (f Flags) cond(op isa.Op) bool {
	switch op {
	case isa.JE:
		return f.ZF
	case isa.JNE:
		return !f.ZF
	case isa.JL:
		return f.SF != f.OF
	case isa.JLE:
		return f.ZF || f.SF != f.OF
	case isa.JG:
		return !f.ZF && f.SF == f.OF
	case isa.JGE:
		return f.SF == f.OF
	case isa.JB:
		return f.CF
	case isa.JBE:
		return f.CF || f.ZF
	case isa.JA:
		return !f.CF && !f.ZF
	case isa.JAE:
		return !f.CF
	case isa.JS:
		return f.SF
	case isa.JNS:
		return !f.SF
	case isa.JO:
		return f.OF
	case isa.JNO:
		return !f.OF
	}
	return false
}

func (v *VM) load(addr uint64, w uint16) (uint64, error) {
	if v.MemHook != nil {
		if err := v.MemHook(v, addr, w, false); err != nil {
			return 0, err
		}
	}
	if v.tel != nil {
		v.tel.loads.Inc()
	}
	v.Cycles += CostMem
	return v.Mem.Load(addr, w)
}

func (v *VM) store(addr uint64, w uint16, val uint64) error {
	if v.MemHook != nil {
		if err := v.MemHook(v, addr, w, true); err != nil {
			return err
		}
	}
	if v.tel != nil {
		v.tel.stores.Inc()
	}
	v.Cycles += CostMem
	return v.Mem.Store(addr, w, val)
}

// checkIndirect runs at every indirect JMP/CALL, before the transfer from
// pc to target commits. When the binary opted into landing-pad
// enforcement (LPADCheck) the target's first byte must be an LPAD opcode
// — the byte at target is exactly the instruction that would decode there,
// since LPAD takes no prefixes. Independently, when the runtime layer
// attached recovered target sets (IndirectTargets), a transfer outside
// the site's set bumps the escape counter; the monitor never alters guest
// behaviour.
func (v *VM) checkIndirect(pc, target uint64) error {
	if v.IndirectTargets != nil {
		if set, ok := v.IndirectTargets[pc]; ok && !set[target] {
			if v.tel != nil {
				v.tel.indirectEscapes.Inc()
			}
		}
	}
	if !v.LPADCheck {
		return nil
	}
	var b [1]byte
	if v.Mem.Fetch(target, b[:]) != 1 || isa.Op(b[0]) != isa.LPAD {
		return fmt.Errorf("vm: indirect branch at %#x to %#x, which is not a landing pad", pc, target)
	}
	return nil
}

func (v *VM) branchTo(target uint64) {
	v.RIP = target
	v.Cycles += CostBranch
	if v.tel != nil {
		v.tel.branches.Inc()
	}
	if v.BlockHook != nil {
		v.BlockHook(v, target)
	}
}

// The compute helpers below are the one definition of what each ALU op
// computes: the interpreter and the trace compiler's general closures
// both call them. They are pure: no cycle charges, no memory access.

// aluApply computes a two-operand ALU/MOV op at width w, returning the
// result and the flags after it (cur when the op leaves them alone).
// CMP and TEST return a, which their callers discard.
func aluApply(op isa.Op, a, b uint64, w uint16, cur Flags) (uint64, Flags) {
	mask := widthMask(w)
	switch op {
	case isa.MOV, isa.MOVABS, isa.MOVZX:
		return b & mask, cur // moves don't touch flags
	case isa.MOVSX:
		r := b & mask
		if signBit(r, w) {
			r |= ^mask
		}
		return r, cur
	case isa.ADD:
		r := (a + b) & mask
		return r, addFlags(a, b, r, w)
	case isa.SUB:
		r := (a - b) & mask
		return r, subFlags(a, b, r, w)
	case isa.CMP:
		r := (a - b) & mask
		return a & mask, subFlags(a, b, r, w)
	case isa.AND, isa.TEST:
		r := (a & b) & mask
		if op == isa.TEST {
			return a & mask, logicFlags(r, w)
		}
		return r, logicFlags(r, w)
	case isa.OR:
		r := (a | b) & mask
		return r, logicFlags(r, w)
	case isa.XOR:
		r := (a ^ b) & mask
		return r, logicFlags(r, w)
	case isa.IMUL:
		r := uint64(int64(a)*int64(b)) & mask
		return r, logicFlags(r, w)
	}
	return 0, cur
}

// unaryApply computes INC/DEC/NEG/NOT of val at width w.
func unaryApply(op isa.Op, val uint64, w uint16, cur Flags) (uint64, Flags) {
	mask := widthMask(w)
	switch op {
	case isa.INC:
		r := (val + 1) & mask
		fl := addFlags(val, 1, r, w)
		fl.CF = cur.CF // INC preserves CF (x86 semantics)
		return r, fl
	case isa.DEC:
		r := (val - 1) & mask
		fl := subFlags(val, 1, r, w)
		fl.CF = cur.CF
		return r, fl
	case isa.NEG:
		r := (-val) & mask
		fl := subFlags(0, val, r, w)
		fl.CF = val&mask != 0
		return r, fl
	}
	return (^val) & mask, cur // NOT: flags untouched
}

// shiftApply computes a 64-bit SHL/SHR/SAR of val by count, already
// masked to 0..63. A zero count leaves the value and the flags alone.
// (Kept small enough for the compiler to inline into exec.)
func shiftApply(op isa.Op, val, count uint64, cur Flags) (uint64, Flags) {
	if count == 0 {
		return val, cur
	}
	r, cf := val<<count, val>>(64-count)&1 != 0
	if op != isa.SHL {
		cf = val>>(count-1)&1 != 0
		r = val >> count
		if op == isa.SAR {
			r = uint64(int64(val) >> count)
		}
	}
	return r, Flags{ZF: r == 0, SF: int64(r) < 0, CF: cf}
}

// divApply computes UDIV/IDIV of the dividend a by the divisor d,
// returning quotient and remainder, or the fault of the instruction at
// pc (a zero divisor, or the one signed quotient that overflows).
func divApply(op isa.Op, a, d, pc uint64) (q, r uint64, err error) {
	if d == 0 {
		return 0, 0, fmt.Errorf("vm: division by zero at %#x", pc)
	}
	if op == isa.UDIV {
		return a / d, a % d, nil
	}
	sa, sd := int64(a), int64(d)
	if sa == -1<<63 && sd == -1 {
		return 0, 0, fmt.Errorf("vm: division overflow at %#x", pc)
	}
	return uint64(sa / sd), uint64(sa % sd), nil
}

// Step retires the single instruction at RIP, decoded afresh from guest
// memory, and fails with a *CycleLimitError once the run exceeds
// MaxCycles. It shares no cache with Run, which makes it the
// per-instruction reference the dispatch identity tests hold Run to.
func (v *VM) Step() error {
	pc := v.RIP
	in, err := v.decodeAt(pc)
	if err != nil {
		return err
	}
	if err := v.exec(pc, &in); err != nil {
		return err
	}
	if v.MaxCycles != 0 && v.Cycles > v.MaxCycles {
		return v.overBudget()
	}
	return nil
}

// exec retires one predecoded instruction at pc. It is the shared
// dispatch body of Step and the block cache, so cycle accounting, hook
// order and error behaviour cannot diverge.
func (v *VM) exec(pc uint64, in *isa.Inst) error {
	next := pc + uint64(in.Len)
	var err error
	if v.Profiler != nil {
		v.Profiler.maybeSample(v, pc)
	}
	if v.tel != nil {
		v.tel.retiredAll.Inc()
		v.tel.retired[in.Op].Inc()
	}
	if v.execEvents {
		v.Flight.RecordExec(obs.EvInst, uint8(in.Op), pc, 0, 0)
	}
	v.Insts++
	v.Cycles += CostInst + v.PerInstOverhead

	switch in.Op {
	case isa.NOP, isa.LPAD:
		// LPAD retires like a NOP; its meaning is consumed at indirect
		// branches (checkIndirect), not when it executes.
		v.RIP = next

	case isa.TRAP:
		target, ok := v.PatchTable[pc]
		if !ok {
			return fmt.Errorf("vm: trap at %#x with no patch-table entry", pc)
		}
		v.Cycles += CostTrap
		if v.tel != nil {
			v.tel.patchHits.Inc()
		}
		if v.execEvents {
			v.Flight.RecordExec(obs.EvTrampEnter, 0, pc, target, 0)
		}
		v.RIP = target // trap dispatch is not a guest branch; no hook

	case isa.HLT:
		v.Halted = true
		v.ExitCode = v.Regs[isa.RAX]
		v.RIP = next

	case isa.RET:
		v.Cycles += CostCall
		addr, err := v.pop()
		if err != nil {
			return err
		}
		if addr == ExitSentinel {
			v.Halted = true
			v.ExitCode = v.Regs[isa.RAX]
			return nil
		}
		v.branchTo(addr)

	case isa.PUSHF:
		if err := v.push(v.Flags.pack()); err != nil {
			return err
		}
		v.Cycles += CostMem
		v.RIP = next

	case isa.POPF:
		val, err := v.pop()
		if err != nil {
			return err
		}
		v.Cycles += CostMem
		v.Flags = unpackFlags(val)
		v.RIP = next

	case isa.CQO:
		v.Regs[isa.RDX] = uint64(int64(v.Regs[isa.RAX]) >> 63)
		v.RIP = next

	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX,
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL:
		// Register-form ops on the hot list retire right here — one
		// dispatch, no stepALU call; everything else (memory forms,
		// sub-width ops) takes the general path.
		switch in.Form {
		case isa.FRR:
			if v.aluRegFast(in, v.Regs[in.Reg2]) {
				v.RIP = next
				return nil
			}
		case isa.FRI:
			if v.aluRegFast(in, uint64(in.Imm)) {
				v.RIP = next
				return nil
			}
		case isa.FRM:
			// Plain loads: the value is the (already zero-extended)
			// memory word, flags untouched — same as stepALU's path.
			if in.Op == isa.MOV || in.Op == isa.MOVZX {
				w := uint16(in.Size)
				if w == 0 {
					w = 8
				}
				b, err := v.load(v.EA(in.Mem, next), w)
				if err != nil {
					return err
				}
				v.Regs[in.Reg] = b
				v.RIP = next
				return nil
			}
		case isa.FMR:
			// Plain stores, likewise.
			if in.Op == isa.MOV {
				w := uint16(in.Size)
				if w == 0 {
					w = 8
				}
				if err := v.store(v.EA(in.Mem, next), w, v.Regs[in.Reg]); err != nil {
					return err
				}
				v.RIP = next
				return nil
			}
		}
		if err := v.stepALU(in, next); err != nil {
			return err
		}
		v.RIP = next

	case isa.LEA:
		v.Regs[in.Reg] = v.EA(in.Mem, next)
		v.RIP = next

	case isa.PUSH:
		var val uint64
		if in.Form == isa.FR {
			val = v.Regs[in.Reg]
		} else {
			val, err = v.load(v.EA(in.Mem, next), 8)
			if err != nil {
				return err
			}
		}
		if err := v.push(val); err != nil {
			return err
		}
		v.Cycles += CostMem
		v.RIP = next

	case isa.POP:
		val, err := v.pop()
		if err != nil {
			return err
		}
		v.Cycles += CostMem
		if in.Form == isa.FR {
			v.Regs[in.Reg] = val
		} else {
			if err := v.store(v.EA(in.Mem, next), 8, val); err != nil {
				return err
			}
		}
		v.RIP = next

	case isa.XCHG:
		v.Regs[in.Reg], v.Regs[in.Reg2] = v.Regs[in.Reg2], v.Regs[in.Reg]
		v.RIP = next

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		if in.Form == isa.FR {
			v.Regs[in.Reg], v.Flags = unaryApply(in.Op, v.Regs[in.Reg], 8, v.Flags)
		} else if err := v.stepUnary(in, next); err != nil {
			return err
		}
		v.RIP = next

	case isa.SHL, isa.SHR, isa.SAR:
		count := uint64(in.Imm)
		if in.Form != isa.FRI {
			count = v.Regs[isa.RCX]
		}
		v.Regs[in.Reg], v.Flags = shiftApply(in.Op, v.Regs[in.Reg], count&63, v.Flags)
		v.RIP = next

	case isa.UDIV, isa.IDIV:
		v.Cycles += CostDiv
		q, r, err := divApply(in.Op, v.Regs[isa.RAX], v.Regs[in.Reg], pc)
		if err != nil {
			return err
		}
		v.Regs[isa.RAX], v.Regs[isa.RDX] = q, r
		v.RIP = next

	case isa.JMP:
		switch in.Form {
		case isa.FRel8, isa.FRel32:
			v.branchTo(next + uint64(in.Imm))
		case isa.FR:
			target := v.Regs[in.Reg]
			if err := v.checkIndirect(pc, target); err != nil {
				return err
			}
			v.branchTo(target)
		case isa.FM:
			target, err := v.load(v.EA(in.Mem, next), 8)
			if err != nil {
				return err
			}
			if err := v.checkIndirect(pc, target); err != nil {
				return err
			}
			v.branchTo(target)
		}

	case isa.CALL:
		v.Cycles += CostCall
		var target uint64
		switch in.Form {
		case isa.FRel32:
			target = next + uint64(in.Imm)
		case isa.FR:
			target = v.Regs[in.Reg]
		case isa.FM:
			target, err = v.load(v.EA(in.Mem, next), 8)
			if err != nil {
				return err
			}
		}
		if in.Form != isa.FRel32 {
			if err := v.checkIndirect(pc, target); err != nil {
				return err
			}
		}
		if err := v.push(next); err != nil {
			return err
		}
		v.branchTo(target)

	case isa.RTCALL:
		idx, arg := SplitRTCallImm(in.Imm)
		host := v.moduleFor(pc)
		if idx >= len(host) || host[idx] == nil {
			return fmt.Errorf("vm: rtcall to unbound import %d at %#x", idx, pc)
		}
		v.RIP = next // handlers may inspect/modify RIP (e.g. longjmp-style)
		before := v.Cycles
		err := host[idx](v, arg)
		if v.tel != nil {
			// Attribute the cycles the handler charged to RTCALL dispatch
			// (the paper's per-stage overhead breakdown needs this split).
			cost := v.Cycles - before
			v.tel.rtcalls.Inc()
			v.tel.rtcallCost.Add(cost)
			v.tel.rtcallHist.Observe(cost)
		}
		if v.execEvents {
			v.Flight.RecordExec(obs.EvRTCall, 0, pc, v.Cycles-before, 0)
		}
		if err != nil {
			return err
		}

	default:
		if in.Op.IsCondJump() {
			if v.condition(in.Op) {
				v.branchTo(next + uint64(in.Imm))
			} else {
				v.RIP = next
			}
			break
		}
		return fmt.Errorf("vm: unimplemented op %v at %#x", in.Op, pc)
	}
	return nil
}

// aluRegFast executes the hot register-form ALU operations (which are
// always 64-bit, so every width mask is all-ones) without the aluApply
// call, reporting whether it handled the op. Results and flags are
// exactly those of aluApply at w == 8: the flag helpers are the shared
// implementation.
func (v *VM) aluRegFast(in *isa.Inst, b uint64) bool {
	a := v.Regs[in.Reg]
	switch in.Op {
	case isa.MOV, isa.MOVABS:
		v.Regs[in.Reg] = b
	case isa.ADD:
		r := a + b
		v.Flags = addFlags(a, b, r, 8)
		v.Regs[in.Reg] = r
	case isa.SUB:
		r := a - b
		v.Flags = subFlags(a, b, r, 8)
		v.Regs[in.Reg] = r
	case isa.CMP:
		v.Flags = subFlags(a, b, a-b, 8)
	case isa.AND:
		r := a & b
		v.Flags = logicFlags(r, 8)
		v.Regs[in.Reg] = r
	case isa.OR:
		r := a | b
		v.Flags = logicFlags(r, 8)
		v.Regs[in.Reg] = r
	case isa.XOR:
		r := a ^ b
		v.Flags = logicFlags(r, 8)
		v.Regs[in.Reg] = r
	case isa.TEST:
		v.Flags = logicFlags(a&b, 8)
	default:
		return false // MOVZX/MOVSX/IMUL: take the general path
	}
	return true
}

// stepALU executes the two-operand ALU/MOV forms exec's fast paths
// leave to it: register forms aluRegFast declines (IMUL), every memory
// source but a plain load, and every memory destination but a plain
// register store.
func (v *VM) stepALU(in *isa.Inst, next uint64) error {
	w := uint16(in.Size)
	if w == 0 {
		w = 8
	}
	var a, b, addr uint64
	var err error
	switch in.Form {
	case isa.FRR, isa.FRI:
		// Register-to-register arithmetic is always 64-bit in RF64.
		w = 8
		a, b = v.Regs[in.Reg], uint64(in.Imm)
		if in.Form == isa.FRR {
			b = v.Regs[in.Reg2]
		}
	case isa.FRM:
		// Moves (zero/sign-extending) and ALU-from-memory both operate
		// at the access width; sub-width results zero-extend into the
		// register (MOVSX sign-extends inside aluApply).
		if b, err = v.load(v.EA(in.Mem, next), w); err != nil {
			return err
		}
		a = v.Regs[in.Reg]
	case isa.FMR, isa.FMI:
		addr = v.EA(in.Mem, next)
		b = uint64(in.Imm)
		if in.Form == isa.FMR {
			b = v.Regs[in.Reg]
		}
		if in.Op == isa.MOV {
			return v.store(addr, w, b)
		}
		if a, err = v.load(addr, w); err != nil {
			return err
		}
	default:
		return fmt.Errorf("vm: bad ALU form %v", in.Form)
	}
	if in.Op == isa.IMUL {
		v.Cycles += CostMul
	}
	var r uint64
	r, v.Flags = aluApply(in.Op, a, b, w, v.Flags)
	switch {
	case in.Op == isa.CMP || in.Op == isa.TEST:
		return nil
	case in.Form == isa.FMR || in.Form == isa.FMI:
		return v.store(addr, w, r)
	}
	v.Regs[in.Reg] = r
	return nil
}

// stepUnary executes INC/DEC/NEG/NOT on a memory operand (exec retires
// the register form itself).
func (v *VM) stepUnary(in *isa.Inst, next uint64) error {
	w := uint16(in.Size)
	if w == 0 {
		w = 8
	}
	addr := v.EA(in.Mem, next)
	val, err := v.load(addr, w)
	if err != nil {
		return err
	}
	var r uint64
	r, v.Flags = unaryApply(in.Op, val, w, v.Flags)
	return v.store(addr, w, r)
}
