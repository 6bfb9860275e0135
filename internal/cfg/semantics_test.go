package cfg_test

import (
	"fmt"
	"testing"

	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/vm"
)

// TestSemanticsCrossCheck validates the static dataflow tables (cfg's
// RegsRead, RegsWritten and WritesFlags, and isa's per-flag FlagsRead,
// FlagsKilled and FlagsMayWrite, which the trace compiler's flag elision
// also reads) against the VM's executable semantics for every encodable
// opcode × form × width combination, by single-stepping each instruction
// and perturbing one input at a time:
//
//   - a register the table omits from RegsRead must not influence any
//     output (registers, flags, RIP, memory);
//   - a register outside RegsWritten must come out unchanged, and one
//     inside RegsWritten ∖ RegsRead must come out input-independent
//     (the liveness kill set is a must-kill set);
//   - !WritesFlags means the flags survive verbatim;
//   - a flag outside FlagsMayWrite comes out unchanged for every input;
//   - a flag in FlagsKilled must leave input-independent;
//   - a flag outside FlagsRead must not influence any non-flag output
//     or any other flag.
//
// RTCALL and TRAP are excluded: their behaviour depends on host bindings
// and the patch table, and cfg already saturates them to everything-read
// / everything-written.
func TestSemanticsCrossCheck(t *testing.T) {
	cases := 0
	for op := isa.Op(1); int(op) < isa.NumOps; op++ {
		if op == isa.RTCALL || op == isa.TRAP {
			continue
		}
		for form := isa.FNone; form <= isa.FRel32; form++ {
			for _, size := range []uint8{1, 2, 4, 8} {
				for _, imm := range immCandidates(op, form) {
					in := buildInst(op, form, size, imm)
					if _, err := isa.Encode(nil, &in); err != nil {
						continue // not an encodable combination
					}
					checkSemantics(t, &in)
					cases++
				}
			}
		}
	}
	if cases < 100 {
		t.Fatalf("only %d encodable cases enumerated; enumeration is broken", cases)
	}
	t.Logf("cross-checked %d opcode×form×width cases", cases)
}

// Register roles: the memory operand is always [RSI + RDI*4 + 64], so
// RSI holds a data-page pointer and RDI a small index; everything else
// holds small nonzero data values. RSP points mid stack page.
const (
	codeBase  = 0x10_000
	dataBase  = 0x20_000
	stackBase = 0x30_000
)

func buildInst(op isa.Op, form isa.Form, size uint8, imm int64) isa.Inst {
	in := isa.Inst{Op: op, Form: form, Size: size, Imm: imm}
	switch form {
	case isa.FR, isa.FRI:
		in.Reg = isa.RBX
	case isa.FRR:
		in.Reg, in.Reg2 = isa.RBX, isa.RCX
	case isa.FM, isa.FMI:
		in.Mem = testMem()
	case isa.FRM, isa.FMR:
		in.Reg = isa.RBX
		in.Mem = testMem()
	}
	return in
}

func testMem() isa.Mem {
	return isa.Mem{Base: isa.RSI, Index: isa.RDI, Scale: 4, Disp: 64}
}

// immCandidates picks immediates that exercise distinct table rows:
// shifts kill flags only for a nonzero immediate count, so both sides
// are enumerated.
func immCandidates(op isa.Op, form isa.Form) []int64 {
	switch {
	case op == isa.SHL || op == isa.SHR || op == isa.SAR:
		return []int64{0, 3}
	case form == isa.FRel8 || form == isa.FRel32:
		return []int64{16}
	case form == isa.FRI || form == isa.FMI || form == isa.FI:
		return []int64{5}
	}
	return []int64{0}
}

// machineState is everything a single instruction can observe or change.
type machineState struct {
	regs  [isa.NumRegs]uint64
	flags vm.Flags
}

func baseState(allFlags bool) machineState {
	var s machineState
	for r := 0; r < isa.NumRegs; r++ {
		s.regs[r] = uint64(0x40 + r*8) // small, nonzero, distinct
	}
	s.regs[isa.RSI] = dataBase + 0x800
	s.regs[isa.RDI] = 3
	s.regs[isa.RSP] = stackBase + 0x800
	s.flags = vm.Flags{ZF: allFlags, SF: allFlags, CF: allFlags, OF: allFlags}
	return s
}

// outcome captures the observable result of executing one instruction.
type outcome struct {
	regs  [isa.NumRegs]uint64
	flags vm.Flags
	rip   uint64
	data  [mem.PageSize]byte
	stack [mem.PageSize]byte
	err   bool
}

// runOne single-steps in from the given machine state on a fresh VM.
func runOne(t *testing.T, in *isa.Inst, s machineState) outcome {
	t.Helper()
	v := vm.New(mem.New())
	v.Mem.Map(codeBase, mem.PageSize, mem.PermRead|mem.PermWrite|mem.PermExec)
	v.Mem.Map(dataBase, mem.PageSize, mem.PermRW)
	v.Mem.Map(stackBase, mem.PageSize, mem.PermRW)
	// Nonzero fill so memory-sourced divisors are never zero.
	if err := v.Mem.Memset(dataBase, 0x11, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	if err := v.Mem.Memset(stackBase, 0x22, mem.PageSize); err != nil {
		t.Fatal(err)
	}
	code, err := isa.Encode(nil, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := v.Mem.WriteAt(codeBase, code); err != nil {
		t.Fatal(err)
	}
	v.Regs = s.regs
	v.Flags = s.flags
	v.RIP = codeBase

	var out outcome
	if err := v.Step(); err != nil {
		out.err = true
		return out
	}
	out.regs = v.Regs
	out.flags = v.Flags
	out.rip = v.RIP
	if err := v.Mem.ReadAt(dataBase, out.data[:]); err != nil {
		t.Fatal(err)
	}
	if err := v.Mem.ReadAt(stackBase, out.stack[:]); err != nil {
		t.Fatal(err)
	}
	return out
}

func flagVal(f vm.Flags, bit isa.FlagSet) bool {
	switch bit {
	case isa.FlagZ:
		return f.ZF
	case isa.FlagS:
		return f.SF
	case isa.FlagC:
		return f.CF
	case isa.FlagO:
		return f.OF
	}
	return false
}

func setFlag(f *vm.Flags, bit isa.FlagSet, v bool) {
	switch bit {
	case isa.FlagZ:
		f.ZF = v
	case isa.FlagS:
		f.SF = v
	case isa.FlagC:
		f.CF = v
	case isa.FlagO:
		f.OF = v
	}
}

var flagBits = []isa.FlagSet{isa.FlagZ, isa.FlagS, isa.FlagC, isa.FlagO}

func checkSemantics(t *testing.T, in *isa.Inst) {
	t.Helper()
	label := fmt.Sprintf("%s/%s/size=%d/imm=%d", in.Op, in.Form, in.Size, in.Imm)

	read := cfg.RegsRead(in)
	written := cfg.RegsWritten(in)
	fRead := isa.FlagsRead(in)
	fKilled := isa.FlagsKilled(in)
	fMay := isa.FlagsMayWrite(in)

	// Static consistency of the flag sets: the must-kill set lies inside
	// the may-write set, and a nonzero may-write set implies the
	// whole-register WritesFlags.
	if fKilled&^fMay != 0 {
		t.Errorf("%s: FlagsKilled=%04b exceeds FlagsMayWrite=%04b", label, fKilled, fMay)
	}
	if fMay != 0 && !cfg.WritesFlags(in) {
		t.Errorf("%s: FlagsMayWrite=%04b but WritesFlags=false", label, fMay)
	}

	// FlagsMayWrite soundness, applied to every run below: a flag outside
	// the set comes out exactly as it went in.
	keepsFlags := func(what string, s machineState, out outcome) {
		for _, bit := range flagBits {
			if !fMay.Has(bit) && flagVal(out.flags, bit) != flagVal(s.flags, bit) {
				t.Errorf("%s: %s changes flag %04b outside FlagsMayWrite", label, what, bit)
			}
		}
	}

	s0 := baseState(false)
	base := runOne(t, in, s0)
	if base.err {
		t.Errorf("%s: baseline execution faulted", label)
		return
	}
	keepsFlags("baseline", s0, base)
	s1 := baseState(true)
	baseAll := runOne(t, in, s1)
	if baseAll.err {
		t.Errorf("%s: all-flags baseline faulted", label)
		return
	}
	keepsFlags("all-flags baseline", s1, baseAll)

	// RegsWritten soundness: registers outside the set are unchanged.
	for r := 0; r < isa.NumRegs; r++ {
		if base.regs[r] != s0.regs[r] && !written.Has(isa.Reg(r)) {
			t.Errorf("%s: modifies %s (=%#x) but RegsWritten omits it",
				label, isa.Reg(r), base.regs[r])
		}
	}

	// WritesFlags soundness: with the bit off, flags survive verbatim.
	if !cfg.WritesFlags(in) {
		if base.flags != s0.flags || baseAll.flags != s1.flags {
			t.Errorf("%s: modifies flags but WritesFlags=false", label)
		}
	}

	// FlagsKilled soundness: a killed flag's output is input-independent.
	// (Valid to compare across the two flag baselines when no flag is an
	// input; ops with FlagsRead != 0 have an empty kill set except POPF,
	// which reads no flags.)
	if fRead == 0 {
		for _, bit := range flagBits {
			if fKilled.Has(bit) && flagVal(base.flags, bit) != flagVal(baseAll.flags, bit) {
				t.Errorf("%s: flag %04b in FlagsKilled but its output depends on input flags",
					label, bit)
			}
		}
	}

	// Data-page writes require Writes().
	if base.data != dataFill() && !in.Writes() {
		t.Errorf("%s: writes the data page but Inst.Writes()=false", label)
	}

	// RegsRead soundness: perturbing an unread register must not change
	// any output except that register's own (possibly overwritten) slot.
	for r := 0; r < isa.NumRegs; r++ {
		if read.Has(isa.Reg(r)) {
			continue
		}
		sp := s0
		sp.regs[r] += 8
		out := runOne(t, in, sp)
		if out.err {
			t.Errorf("%s: perturbing unread %s faulted", label, isa.Reg(r))
			continue
		}
		keepsFlags("perturbing "+isa.Reg(r).String(), sp, out)
		for q := 0; q < isa.NumRegs; q++ {
			want := base.regs[q]
			if q == r && !written.Has(isa.Reg(q)) {
				want = sp.regs[q]
			}
			if out.regs[q] != want {
				t.Errorf("%s: %s influences %s but RegsRead omits it",
					label, isa.Reg(r), isa.Reg(q))
			}
		}
		if out.flags != base.flags {
			t.Errorf("%s: %s influences flags but RegsRead omits it", label, isa.Reg(r))
		}
		if out.rip != base.rip {
			t.Errorf("%s: %s influences RIP but RegsRead omits it", label, isa.Reg(r))
		}
		if out.data != base.data || out.stack != base.stack {
			t.Errorf("%s: %s influences memory but RegsRead omits it", label, isa.Reg(r))
		}
	}

	// Perturbing a read register may change any output except a flag
	// outside FlagsMayWrite.
	for r := 0; r < isa.NumRegs; r++ {
		if !read.Has(isa.Reg(r)) {
			continue
		}
		sp := s0
		sp.regs[r] += 8
		if out := runOne(t, in, sp); !out.err {
			keepsFlags("perturbing read "+isa.Reg(r).String(), sp, out)
		}
	}

	// FlagsRead soundness: perturbing an unread flag must not change any
	// non-flag output or any other flag; its own output either follows
	// the input through (not killed) or is input-independent.
	for _, bit := range flagBits {
		if fRead.Has(bit) {
			continue
		}
		sp := s0
		setFlag(&sp.flags, bit, true)
		out := runOne(t, in, sp)
		if out.err {
			t.Errorf("%s: perturbing unread flag %04b faulted", label, bit)
			continue
		}
		keepsFlags(fmt.Sprintf("perturbing flag %04b", bit), sp, out)
		if out.regs != base.regs || out.rip != base.rip ||
			out.data != base.data || out.stack != base.stack {
			t.Errorf("%s: flag %04b influences non-flag state but FlagsRead omits it",
				label, bit)
		}
		for _, other := range flagBits {
			if other == bit {
				continue
			}
			if flagVal(out.flags, other) != flagVal(base.flags, other) {
				t.Errorf("%s: flag %04b influences flag %04b but FlagsRead omits it",
					label, bit, other)
			}
		}
		if fKilled.Has(bit) && flagVal(out.flags, bit) != flagVal(base.flags, bit) {
			t.Errorf("%s: flag %04b in FlagsKilled but survives perturbation", label, bit)
		}
	}
}

// dataFill reproduces the initial data-page image for comparison.
func dataFill() (p [mem.PageSize]byte) {
	for i := range p {
		p[i] = 0x11
	}
	return
}
