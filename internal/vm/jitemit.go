package vm

// Phase two of the superblock compiler: compile a TraceInfo into step
// closures. Every decode-dependent decision — operand form, width,
// registers, immediates, effective-address shape, branch prediction,
// check plans, flag elision — is resolved here, once, so the closures
// are residual computations over v.Regs, guest memory and the deferred
// jctx state. Their results come from the interpreter's own compute
// helpers (aluApply, unaryApply, shiftApply, divApply) wherever a
// closure is not a specialized register-form fast path.
//
// Steps whose every effect is static emit no closure at all: an
// unconditional relative jump, a NOP, a TRAP (its patch target is the
// step's static successor), a CMP or TEST whose flags are dead, and a
// shift by an immediate zero. Their cycles, retired count and counters
// are already in the exit records. A closure returns cont (0) to go on
// to the next closure; when the last one continues, the runner takes the
// last step's continue exit (trace.last). A 64-bit register CMP directly
// followed by its conditional branch compiles to one closure, and a MOV
// load or store through a base register adds its address inline.
//
// The closures deliberately bypass v.load/v.store/v.branchTo: those
// helpers charge cycles and bump telemetry per event, which the trace
// accounts statically per exit instead, from the costs and counter
// deltas the analyzer recorded for each path. Guest memory is accessed
// through the same Mem.Load/Mem.Store primitives, so fault detection is
// identical. jitEnabled guarantees no MemHook/BlockHook/Profiler or
// execution-grain recorder is attached, which is what makes the bypass
// behaviour-preserving.

import "redfat/internal/isa"

// cont is what a step closure returns to continue with the next one.
const cont = 0

// emitEA compiles an effective-address computation, folding the
// displacement (and the static next-RIP of RIP-relative operands) into
// a constant and specializing on which components exist.
func emitEA(m isa.Mem, next uint64) func(v *VM) uint64 {
	off := uint64(int64(m.Disp))
	base := m.Base
	if base == isa.RIP {
		off += next
		base = isa.RegNone
	}
	idx, scale, seg := m.Index, uint64(m.Scale), m.Seg
	switch {
	case seg != isa.SegNone: // segment-relative: rare, keep general
		return func(v *VM) uint64 {
			a := off
			if base != isa.RegNone {
				a += v.Regs[base]
			}
			if idx != isa.RegNone {
				a += v.Regs[idx] * scale
			}
			if seg == isa.SegFS {
				a += v.FSBase
			} else {
				a += v.GSBase
			}
			return a
		}
	case base != isa.RegNone && idx != isa.RegNone:
		return func(v *VM) uint64 { return v.Regs[base] + v.Regs[idx]*scale + off }
	case base != isa.RegNone:
		return func(v *VM) uint64 { return v.Regs[base] + off }
	case idx != isa.RegNone:
		return func(v *VM) uint64 { return v.Regs[idx]*scale + off }
	default:
		return func(v *VM) uint64 { return off }
	}
}

// emitALURR compiles a register-register ALU op (always 64-bit, like
// aluRegFast). MOVZX/MOVSX degenerate to plain moves at width 8.
func emitALURR(v *VM, op isa.Op, dst, src isa.Reg, elide bool) jstep {
	switch op {
	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX:
		return func(j *jctx) int { v.Regs[dst] = v.Regs[src]; return cont }
	case isa.ADD:
		if elide {
			return func(j *jctx) int { v.Regs[dst] += v.Regs[src]; return cont }
		}
		return func(j *jctx) int {
			a, b := v.Regs[dst], v.Regs[src]
			r := a + b
			j.flags = addFlags(a, b, r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.SUB:
		if elide {
			return func(j *jctx) int { v.Regs[dst] -= v.Regs[src]; return cont }
		}
		return func(j *jctx) int {
			a, b := v.Regs[dst], v.Regs[src]
			r := a - b
			j.flags = subFlags(a, b, r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.CMP:
		return func(j *jctx) int {
			a, b := v.Regs[dst], v.Regs[src]
			j.flags = subFlags(a, b, a-b, 8)
			return cont
		}
	case isa.AND:
		if elide {
			return func(j *jctx) int { v.Regs[dst] &= v.Regs[src]; return cont }
		}
		return func(j *jctx) int {
			r := v.Regs[dst] & v.Regs[src]
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.OR:
		if elide {
			return func(j *jctx) int { v.Regs[dst] |= v.Regs[src]; return cont }
		}
		return func(j *jctx) int {
			r := v.Regs[dst] | v.Regs[src]
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.XOR:
		if elide {
			return func(j *jctx) int { v.Regs[dst] ^= v.Regs[src]; return cont }
		}
		return func(j *jctx) int {
			r := v.Regs[dst] ^ v.Regs[src]
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.TEST:
		return func(j *jctx) int {
			j.flags = logicFlags(v.Regs[dst]&v.Regs[src], 8)
			return cont
		}
	case isa.IMUL:
		if elide {
			return func(j *jctx) int {
				v.Regs[dst] = uint64(int64(v.Regs[dst]) * int64(v.Regs[src]))
				return cont
			}
		}
		return func(j *jctx) int {
			r := uint64(int64(v.Regs[dst]) * int64(v.Regs[src]))
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	}
	return nil
}

// emitALURI compiles a register-immediate ALU op (always 64-bit).
func emitALURI(v *VM, op isa.Op, dst isa.Reg, imm uint64, elide bool) jstep {
	switch op {
	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX:
		return func(j *jctx) int { v.Regs[dst] = imm; return cont }
	case isa.ADD:
		if elide {
			return func(j *jctx) int { v.Regs[dst] += imm; return cont }
		}
		return func(j *jctx) int {
			a := v.Regs[dst]
			r := a + imm
			j.flags = addFlags(a, imm, r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.SUB:
		if elide {
			return func(j *jctx) int { v.Regs[dst] -= imm; return cont }
		}
		return func(j *jctx) int {
			a := v.Regs[dst]
			r := a - imm
			j.flags = subFlags(a, imm, r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.CMP:
		return func(j *jctx) int {
			a := v.Regs[dst]
			j.flags = subFlags(a, imm, a-imm, 8)
			return cont
		}
	case isa.AND:
		if elide {
			return func(j *jctx) int { v.Regs[dst] &= imm; return cont }
		}
		return func(j *jctx) int {
			r := v.Regs[dst] & imm
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.OR:
		if elide {
			return func(j *jctx) int { v.Regs[dst] |= imm; return cont }
		}
		return func(j *jctx) int {
			r := v.Regs[dst] | imm
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.XOR:
		if elide {
			return func(j *jctx) int { v.Regs[dst] ^= imm; return cont }
		}
		return func(j *jctx) int {
			r := v.Regs[dst] ^ imm
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	case isa.TEST:
		return func(j *jctx) int {
			j.flags = logicFlags(v.Regs[dst]&imm, 8)
			return cont
		}
	case isa.IMUL:
		if elide {
			return func(j *jctx) int {
				v.Regs[dst] = uint64(int64(v.Regs[dst]) * int64(imm))
				return cont
			}
		}
		return func(j *jctx) int {
			r := uint64(int64(v.Regs[dst]) * int64(imm))
			j.flags = logicFlags(r, 8)
			v.Regs[dst] = r
			return cont
		}
	}
	return nil
}

// emitStep compiles one analyzed step into its closure. Returns nil on
// an inconsistency between the analyzer and the emitter, which aborts
// the whole compilation (the block is then pinned to the interpreter).
func (v *VM) emitStep(info *TraceInfo, aux []stepAux, i int) jstep {
	st := &info.Steps[i]
	in := &st.Inst
	ax := &aux[i]
	pc := st.PC
	next := pc + uint64(in.Len)
	elide := st.FlagsElided

	switch in.Op {
	case isa.CQO:
		return func(j *jctx) int {
			v.Regs[isa.RDX] = uint64(int64(v.Regs[isa.RAX]) >> 63)
			return cont
		}

	case isa.XCHG:
		r1, r2 := in.Reg, in.Reg2
		return func(j *jctx) int {
			v.Regs[r1], v.Regs[r2] = v.Regs[r2], v.Regs[r1]
			return cont
		}

	case isa.LEA:
		ea := emitEA(in.Mem, next)
		dst := in.Reg
		return func(j *jctx) int { v.Regs[dst] = ea(v); return cont }

	case isa.MOV, isa.MOVABS, isa.MOVZX, isa.MOVSX,
		isa.ADD, isa.SUB, isa.AND, isa.OR, isa.XOR,
		isa.CMP, isa.TEST, isa.IMUL:
		op := in.Op
		w := uint16(in.Size)
		if w == 0 {
			w = 8
		}
		switch in.Form {
		case isa.FRR:
			return emitALURR(v, op, in.Reg, in.Reg2, elide)
		case isa.FRI:
			return emitALURI(v, op, in.Reg, uint64(in.Imm), elide)
		case isa.FRM:
			dst := in.Reg
			f1 := ax.exits[0]
			if op == isa.MOV || op == isa.MOVZX {
				if base, idx, scale, off, ok := foldEA(in.Mem); ok {
					if idx == isa.RegNone {
						return func(j *jctx) int {
							b, err := v.Mem.Load(v.Regs[base]+off, w)
							if err != nil {
								j.err = err
								return f1
							}
							v.Regs[dst] = b
							return cont
						}
					}
					return func(j *jctx) int {
						b, err := v.Mem.Load(v.Regs[base]+v.Regs[idx]*scale+off, w)
						if err != nil {
							j.err = err
							return f1
						}
						v.Regs[dst] = b
						return cont
					}
				}
				ea := emitEA(in.Mem, next)
				return func(j *jctx) int {
					b, err := v.Mem.Load(ea(v), w)
					if err != nil {
						j.err = err
						return f1
					}
					v.Regs[dst] = b
					return cont
				}
			}
			ea := emitEA(in.Mem, next)
			wr := op != isa.CMP && op != isa.TEST
			return func(j *jctx) int {
				b, err := v.Mem.Load(ea(v), w)
				if err != nil {
					j.err = err
					return f1
				}
				r, fl := aluApply(op, v.Regs[dst], b, w, j.flags)
				if !elide {
					j.flags = fl
				}
				if wr {
					v.Regs[dst] = r
				}
				return cont
			}
		case isa.FMR, isa.FMI:
			f1 := ax.exits[0]
			src := in.Reg
			imm := uint64(in.Imm)
			isImm := in.Form == isa.FMI
			if base, idx, scale, off, ok := foldEA(in.Mem); ok && op == isa.MOV {
				if idx == isa.RegNone {
					if isImm {
						return func(j *jctx) int {
							if err := v.Mem.Store(v.Regs[base]+off, w, imm); err != nil {
								j.err = err
								return f1
							}
							return cont
						}
					}
					return func(j *jctx) int {
						if err := v.Mem.Store(v.Regs[base]+off, w, v.Regs[src]); err != nil {
							j.err = err
							return f1
						}
						return cont
					}
				}
				if isImm {
					return func(j *jctx) int {
						if err := v.Mem.Store(v.Regs[base]+v.Regs[idx]*scale+off, w, imm); err != nil {
							j.err = err
							return f1
						}
						return cont
					}
				}
				return func(j *jctx) int {
					if err := v.Mem.Store(v.Regs[base]+v.Regs[idx]*scale+off, w, v.Regs[src]); err != nil {
						j.err = err
						return f1
					}
					return cont
				}
			}
			ea := emitEA(in.Mem, next)
			switch op {
			case isa.MOV:
				if isImm {
					return func(j *jctx) int {
						if err := v.Mem.Store(ea(v), w, imm); err != nil {
							j.err = err
							return f1
						}
						return cont
					}
				}
				return func(j *jctx) int {
					if err := v.Mem.Store(ea(v), w, v.Regs[src]); err != nil {
						j.err = err
						return f1
					}
					return cont
				}
			case isa.CMP, isa.TEST:
				return func(j *jctx) int {
					a, err := v.Mem.Load(ea(v), w)
					if err != nil {
						j.err = err
						return f1
					}
					if !elide {
						b := imm
						if !isImm {
							b = v.Regs[src]
						}
						_, fl := aluApply(op, a, b, w, j.flags)
						j.flags = fl
					}
					return cont
				}
			default: // read-modify-write
				f2 := ax.exits[1]
				return func(j *jctx) int {
					addr := ea(v)
					a, err := v.Mem.Load(addr, w)
					if err != nil {
						j.err = err
						return f1
					}
					b := imm
					if !isImm {
						b = v.Regs[src]
					}
					r, fl := aluApply(op, a, b, w, j.flags)
					if !elide {
						j.flags = fl // before the store, like stepALU
					}
					if err := v.Mem.Store(addr, w, r); err != nil {
						j.err = err
						return f2
					}
					return cont
				}
			}
		}
		return nil

	case isa.PUSH:
		f1 := ax.exits[0]
		if in.Form == isa.FR {
			src := in.Reg
			return func(j *jctx) int {
				val := v.Regs[src] // read before RSP moves (src may be RSP)
				if err := v.push(val); err != nil {
					j.err = err
					return f1
				}
				return cont
			}
		}
		ea := emitEA(in.Mem, next)
		f2 := ax.exits[1]
		return func(j *jctx) int {
			val, err := v.Mem.Load(ea(v), 8)
			if err != nil {
				j.err = err
				return f1
			}
			if err := v.push(val); err != nil {
				j.err = err
				return f2
			}
			return cont
		}

	case isa.PUSHF:
		f1 := ax.exits[0]
		return func(j *jctx) int {
			if err := v.push(j.flags.pack()); err != nil {
				j.err = err
				return f1
			}
			return cont
		}

	case isa.POP:
		f1 := ax.exits[0]
		if in.Form == isa.FR {
			dst := in.Reg
			return func(j *jctx) int {
				val, err := v.pop()
				if err != nil {
					j.err = err
					return f1
				}
				v.Regs[dst] = val
				return cont
			}
		}
		ea := emitEA(in.Mem, next)
		f2 := ax.exits[1]
		return func(j *jctx) int {
			val, err := v.pop()
			if err != nil {
				j.err = err
				return f1
			}
			// EA after the pop: RSP-relative destinations see the
			// incremented stack pointer, exactly like the interpreter.
			if err := v.Mem.Store(ea(v), 8, val); err != nil {
				j.err = err
				return f2
			}
			return cont
		}

	case isa.POPF:
		f1 := ax.exits[0]
		return func(j *jctx) int {
			val, err := v.pop()
			if err != nil {
				j.err = err
				return f1
			}
			j.flags = unpackFlags(val)
			return cont
		}

	case isa.INC, isa.DEC, isa.NEG, isa.NOT:
		op := in.Op
		if in.Form == isa.FR {
			reg := in.Reg
			return func(j *jctx) int {
				r, fl := unaryApply(op, v.Regs[reg], 8, j.flags)
				if !elide {
					j.flags = fl
				}
				v.Regs[reg] = r
				return cont
			}
		}
		w := uint16(in.Size)
		if w == 0 {
			w = 8
		}
		ea := emitEA(in.Mem, next)
		f1, f2 := ax.exits[0], ax.exits[1]
		return func(j *jctx) int {
			addr := ea(v)
			val, err := v.Mem.Load(addr, w)
			if err != nil {
				j.err = err
				return f1
			}
			r, fl := unaryApply(op, val, w, j.flags)
			if !elide {
				j.flags = fl
			}
			if err := v.Mem.Store(addr, w, r); err != nil {
				j.err = err
				return f2
			}
			return cont
		}

	case isa.SHL, isa.SHR, isa.SAR:
		op := in.Op
		reg := in.Reg
		if in.Form == isa.FRI {
			count := uint64(in.Imm) & 63 // never 0: that shift is a no-op step
			switch op {
			case isa.SHL:
				hi := uint64(1) << (64 - count)
				if elide {
					return func(j *jctx) int { v.Regs[reg] <<= count; return cont }
				}
				return func(j *jctx) int {
					val := v.Regs[reg]
					r := val << count
					j.flags = Flags{ZF: r == 0, SF: signBit(r, 8), CF: val&hi != 0}
					v.Regs[reg] = r
					return cont
				}
			case isa.SHR:
				lo := uint64(1) << (count - 1)
				if elide {
					return func(j *jctx) int { v.Regs[reg] >>= count; return cont }
				}
				return func(j *jctx) int {
					val := v.Regs[reg]
					r := val >> count
					j.flags = Flags{ZF: r == 0, SF: signBit(r, 8), CF: val&lo != 0}
					v.Regs[reg] = r
					return cont
				}
			default: // SAR
				lo := uint64(1) << (count - 1)
				if elide {
					return func(j *jctx) int {
						v.Regs[reg] = uint64(int64(v.Regs[reg]) >> count)
						return cont
					}
				}
				return func(j *jctx) int {
					val := v.Regs[reg]
					r := uint64(int64(val) >> count)
					j.flags = Flags{ZF: r == 0, SF: signBit(r, 8), CF: val&lo != 0}
					v.Regs[reg] = r
					return cont
				}
			}
		}
		// CL-count shift: everything is dynamic.
		return func(j *jctx) int {
			r, fl := shiftApply(op, v.Regs[reg], v.Regs[isa.RCX]&63, j.flags)
			if !elide {
				j.flags = fl
			}
			v.Regs[reg] = r
			return cont
		}

	case isa.UDIV, isa.IDIV:
		op, reg := in.Op, in.Reg
		f1 := ax.exits[0]
		return func(j *jctx) int {
			q, r, err := divApply(op, v.Regs[isa.RAX], v.Regs[reg], pc)
			if err != nil {
				j.err = err
				return f1
			}
			v.Regs[isa.RAX], v.Regs[isa.RDX] = q, r
			return cont
		}

	case isa.HLT:
		halt := ax.exits[0]
		return func(j *jctx) int {
			v.Halted = true
			v.ExitCode = v.Regs[isa.RAX]
			return halt
		}

	case isa.JMP:
		switch in.Form {
		case isa.FR:
			reg := in.Reg
			dyn := ax.exits[0]
			return func(j *jctx) int {
				j.dynRIP = v.Regs[reg]
				return dyn
			}
		case isa.FM:
			ea := emitEA(in.Mem, next)
			f1, dyn := ax.exits[0], ax.exits[1]
			return func(j *jctx) int {
				target, err := v.Mem.Load(ea(v), 8)
				if err != nil {
					j.err = err
					return f1
				}
				j.dynRIP = target
				return dyn
			}
		}
		return nil

	case isa.CALL:
		switch in.Form {
		case isa.FRel32:
			f1 := ax.exits[0]
			return func(j *jctx) int {
				if err := v.push(next); err != nil {
					j.err = err
					return f1
				}
				return cont
			}
		case isa.FR:
			reg := in.Reg
			f1, dyn := ax.exits[0], ax.exits[1]
			return func(j *jctx) int {
				target := v.Regs[reg] // read before the push moves RSP
				if err := v.push(next); err != nil {
					j.err = err
					return f1
				}
				j.dynRIP = target
				return dyn
			}
		case isa.FM:
			ea := emitEA(in.Mem, next)
			f1, f2, dyn := ax.exits[0], ax.exits[1], ax.exits[2]
			return func(j *jctx) int {
				target, err := v.Mem.Load(ea(v), 8)
				if err != nil {
					j.err = err
					return f1
				}
				if err := v.push(next); err != nil {
					j.err = err
					return f2
				}
				j.dynRIP = target
				return dyn
			}
		}
		return nil

	case isa.RET:
		f1, halt, dyn := ax.exits[0], ax.exits[1], ax.exits[2]
		return func(j *jctx) int {
			addr, err := v.pop()
			if err != nil {
				j.err = err
				return f1
			}
			if addr == ExitSentinel {
				v.Halted = true
				v.ExitCode = v.Regs[isa.RAX]
				return halt
			}
			j.dynRIP = addr
			return dyn
		}

	case isa.RTCALL:
		plan := ax.plan
		c := st.Check
		if plan == nil || c == nil {
			return nil
		}
		exec := plan.Exec
		f1 := ax.exits[0]
		return func(j *jctx) int {
			v.RIP = next // handlers attribute errors to the resume RIP
			before := v.Cycles
			err := exec(v)
			if v.tel != nil {
				cost := v.Cycles - before
				v.tel.rtcalls.Inc()
				v.tel.rtcallCost.Add(cost)
				v.tel.rtcallHist.Observe(cost)
			}
			if err != nil {
				j.err = err
				return f1
			}
			return cont
		}

	default:
		if !in.Op.IsCondJump() {
			return nil
		}
		op, side, taken := in.Op, ax.exits[0], ax.onTaken
		return func(j *jctx) int {
			if j.flags.cond(op) == taken {
				return cont
			}
			return side
		}
	}
}

// noOpStep reports whether a step compiles to no closure: everything it
// does is static and already folded into the exit records.
func noOpStep(st *TraceStep) bool {
	in := &st.Inst
	switch in.Op {
	case isa.NOP, isa.LPAD, isa.TRAP:
		return true
	case isa.JMP:
		return in.Form == isa.FRel8 || in.Form == isa.FRel32
	case isa.CMP, isa.TEST:
		return st.FlagsElided && (in.Form == isa.FRR || in.Form == isa.FRI)
	case isa.SHL, isa.SHR, isa.SAR:
		return in.Form == isa.FRI && uint64(in.Imm)&63 == 0
	}
	return false
}

// foldEA splits a memory operand that addresses through a base register
// with no segment into its parts, so a MOV closure adds them inline
// instead of calling an emitEA closure. ok is false for any other shape.
func foldEA(m isa.Mem) (base, idx isa.Reg, scale, off uint64, ok bool) {
	if m.Base == isa.RegNone || m.Base == isa.RIP || m.Seg != isa.SegNone {
		return 0, 0, 0, 0, false
	}
	return m.Base, m.Index, uint64(m.Scale), uint64(int64(m.Disp)), true
}

// emitCmpJcc compiles a 64-bit register CMP whose flags are live and the
// conditional branch right after it into one closure: it sets the flags,
// then branches. jcc is the branch's aux record.
func emitCmpJcc(v *VM, cmp, br *isa.Inst, jcc *stepAux) jstep {
	op, dst, side, taken := br.Op, cmp.Reg, jcc.exits[0], jcc.onTaken
	if cmp.Form == isa.FRR {
		src := cmp.Reg2
		return func(j *jctx) int {
			a, b := v.Regs[dst], v.Regs[src]
			j.flags = subFlags(a, b, a-b, 8)
			if j.flags.cond(op) == taken {
				return cont
			}
			return side
		}
	}
	imm := uint64(cmp.Imm)
	return func(j *jctx) int {
		a := v.Regs[dst]
		j.flags = subFlags(a, imm, a-imm, 8)
		if j.flags.cond(op) == taken {
			return cont
		}
		return side
	}
}

// buildBatch aggregates the per-step telemetry along one exit path into
// a handful of counter adds, preserving first-retirement opcode order.
func buildBatch(t *trace, e *traceExit) *telBatch {
	b := &telBatch{}
	idx := make(map[isa.Op]int)
	add := func(m *stepTel) {
		k, ok := idx[m.op]
		if !ok {
			k = len(b.ops)
			idx[m.op] = k
			b.ops = append(b.ops, opCount{op: m.op})
		}
		b.ops[k].n++
		b.loads += uint64(m.loads)
		b.stores += uint64(m.stores)
		b.branches += uint64(m.branches)
		b.patch += uint64(m.patch)
	}
	for i := 0; i < e.step; i++ {
		add(&t.meta[i])
	}
	add(&e.self)
	return b
}

// emitTrace compiles an analyzed plan into an executable trace. Returns
// nil if any step cannot be emitted (which pins the root block to the
// interpreter).
func (v *VM) emitTrace(tb *traceBuilder) *trace {
	info, aux := tb.info, tb.aux
	t := &trace{
		entryPC: info.EntryPC,
		maxCost: info.MaxCost,
		info:    info,
	}
	t.meta = make([]stepTel, len(info.Steps))
	for i := range aux {
		t.meta[i] = aux[i].tel
	}
	t.exits = make([]traceExit, len(info.Exits))
	for i := range info.Exits {
		e := &info.Exits[i]
		t.exits[i] = traceExit{
			kind:    e.Kind,
			rip:     e.RIP,
			dynamic: e.Dynamic,
			retired: e.Retired,
			cycles:  e.Cycles,
			step:    e.Step,
			self:    tb.exitTel[i],
		}
		// Attribute the deopt reason once, at compile time. Fall and
		// loop exits keep control in compiled code and are not deopts;
		// a fault exit at a fused-check step is a trap (an aborting
		// detection), every other fault is a machine fault.
		switch e.Kind {
		case ExitSide:
			t.exits[i].deopt, t.exits[i].reason = true, DeoptSide
		case ExitDyn:
			t.exits[i].deopt, t.exits[i].reason = true, DeoptDyn
		case ExitHalt:
			t.exits[i].deopt, t.exits[i].reason = true, DeoptHalt
		case ExitFault:
			if info.Steps[e.Step].Check != nil {
				t.exits[i].deopt, t.exits[i].reason = true, DeoptTrap
			} else {
				t.exits[i].deopt, t.exits[i].reason = true, DeoptFault
			}
		}
	}
	for i := range t.exits {
		switch t.exits[i].kind {
		case ExitFall, ExitLoop, ExitDyn, ExitHalt:
			t.exits[i].batch = buildBatch(t, &t.exits[i])
		}
	}
	t.steps = make([]jstep, 0, len(info.Steps))
	for i := 0; i < len(info.Steps); i++ {
		st := &info.Steps[i]
		if noOpStep(st) {
			continue
		}
		var s jstep
		if in := &st.Inst; in.Op == isa.CMP && (in.Form == isa.FRR || in.Form == isa.FRI) &&
			!st.FlagsElided && i+1 < len(info.Steps) && info.Steps[i+1].Inst.Op.IsCondJump() {
			i++
			s = emitCmpJcc(v, in, &info.Steps[i].Inst, &aux[i])
		} else if s = v.emitStep(info, aux, i); s == nil {
			return nil
		}
		t.steps = append(t.steps, s)
	}
	t.last = &t.exits[aux[len(aux)-1].contID-1]
	return t
}
