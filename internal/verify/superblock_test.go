package verify_test

import (
	"strings"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/juliet"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/verify"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

// certProgram is an uninstrumented workload exercising most of the
// compilable instruction set inside hot loops: both conditional-branch
// directions, push/pop, shifts, a static call with a RET dynamic exit,
// and global load/store traffic.
func certProgram(b *asm.Builder) {
	b.Func("main")
	b.MovRI(isa.RAX, 0)
	b.MovRI(isa.RBX, 0)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.AluRI(isa.XOR, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, 0)
	b.Jcc(isa.JE, "even")
	b.AluRI(isa.ADD, isa.RAX, 3)
	b.Jmp("join")
	b.Label("even")
	b.AluRI(isa.ADD, isa.RAX, 1)
	b.Label("join")
	b.Push(isa.RAX)
	b.Pop(isa.RDX)
	b.Shift(isa.SHL, isa.RDX, 2)
	b.Shift(isa.SHR, isa.RDX, 2)
	b.Call("twiddle")
	b.StoreGlobal("acc", 0, isa.RAX, 8)
	b.LoadGlobal(isa.RDX, "acc", 0, 8)
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.AluRI(isa.CMP, isa.RBX, 2000)
	b.Jcc(isa.JL, "loop")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	b.Func("twiddle")
	b.Emit(isa.Inst{Op: isa.NEG, Form: isa.FR, Reg: isa.RAX, Size: 8})
	b.Emit(isa.Inst{Op: isa.NEG, Form: isa.FR, Reg: isa.RAX, Size: 8})
	b.Ret()
	b.GlobalU64("acc", 0)
}

// requireOK fails the test with the rendered report when the certifier
// found violations.
func requireOK(t *testing.T, rep *verify.Report) {
	t.Helper()
	if rep.OK() {
		return
	}
	var sb strings.Builder
	rep.Render(&sb)
	t.Fatalf("certifier rejected compiled traces:\n%s", sb.String())
}

// TestSuperblockCertifierBaseline certifies the traces of an
// uninstrumented hot program: every compiled plan must agree with the
// certifier's independent re-derivation.
func TestSuperblockCertifierBaseline(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	certProgram(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	v, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Knobs: rtlib.Knobs{JITThreshold: 4}})
	if err != nil {
		t.Fatal(err)
	}
	if len(v.CompiledTraces()) == 0 {
		t.Fatal("no superblocks compiled")
	}
	rep := verify.Superblocks(v)
	requireOK(t, rep)
	if rep.Traces == 0 || rep.TraceSteps == 0 {
		t.Fatalf("certifier saw %d traces, %d steps", rep.Traces, rep.TraceSteps)
	}
}

// TestSuperblockCertifierCorpora runs shipped corpora hardened under the
// default policy with a low compile threshold and certifies every trace
// the tier compiled, including fused check steps inside trampolines.
func TestSuperblockCertifierCorpora(t *testing.T) {
	type testRun struct {
		name string
		hard func() (*vm.VM, error)
	}
	var runs []testRun
	benches := workload.All()
	n := 3
	if testing.Short() {
		n = 1
	}
	// The switch-dense corpus is marker-built: its dispatch targets open
	// with an lpad, so its traces hold lpad steps.
	for _, bm := range append(benches[:n:n], workload.SwitchDense()...) {
		bm := bm
		runs = append(runs, testRun{bm.Name, func() (*vm.VM, error) {
			bin, err := bm.Build()
			if err != nil {
				return nil, err
			}
			hard, _, err := redfat.Harden(bin, redfat.Defaults())
			if err != nil {
				return nil, err
			}
			v, _, _ := rtlib.RunHardened(hard, rtlib.RunConfig{Input: bm.RefInput(), Knobs: rtlib.Knobs{JITThreshold: 8}})
			return v, nil
		}})
	}
	cve := juliet.CVECases()[0]
	runs = append(runs, testRun{"cve/" + cve.ID, func() (*vm.VM, error) {
		bin, err := cve.Build()
		if err != nil {
			return nil, err
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			return nil, err
		}
		v, _, _ := rtlib.RunHardened(hard, rtlib.RunConfig{Knobs: rtlib.Knobs{JITThreshold: 8}})
		return v, nil
	}})

	traces, checks := 0, 0
	for _, r := range runs {
		t.Run(r.name, func(t *testing.T) {
			v, err := r.hard()
			if err != nil {
				t.Fatal(err)
			}
			rep := verify.Superblocks(v)
			requireOK(t, rep)
			traces += rep.Traces
			checks += rep.TraceChecks
		})
	}
	if traces == 0 {
		t.Fatal("no superblocks compiled across the corpus")
	}
	if checks == 0 {
		t.Fatal("no fused checks certified across the corpus")
	}
	t.Logf("certified %d traces, %d fused checks", traces, checks)
}

// mutantProgram loads through a pointer register in a hot loop, so the
// compiled trace carries a fused check.
func mutantProgram(b *asm.Builder) {
	b.Func("main")
	b.LoadAddr(isa.RSI, "buf", 0)
	b.MovRI(isa.RBX, 0)
	b.MovRI(isa.RAX, 0)
	b.Label("loop")
	b.Load(isa.RDX, isa.RSI, 0, 8)
	b.AluRR(isa.ADD, isa.RAX, isa.RDX)
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.AluRI(isa.CMP, isa.RBX, 4000)
	b.Jcc(isa.JL, "loop")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	b.GlobalU64("buf", 7)
}

// copyInfo deep-copies a trace plan so mutations cannot leak into the
// VM's live traces.
func copyInfo(info *vm.TraceInfo) *vm.TraceInfo {
	out := *info
	out.Steps = append([]vm.TraceStep(nil), info.Steps...)
	for i := range out.Steps {
		if c := out.Steps[i].Check; c != nil {
			cc := *c
			out.Steps[i].Check = &cc
		}
	}
	out.Exits = append([]vm.TraceExit(nil), info.Exits...)
	return &out
}

// TestSuperblockCertifierRejectsMutants seeds targeted corruptions into
// a real compiled plan — dropped checks, misstated check bounds, wrong
// spill state, stale flag claims, misstated costs — and requires the
// certifier to reject every one while accepting the original.
func TestSuperblockCertifierRejectsMutants(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	mutantProgram(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Knobs: rtlib.Knobs{JITThreshold: 2}})
	if err != nil {
		t.Fatal(err)
	}

	// Pick the first trace that carries a fused check.
	var target *vm.TraceInfo
	checkStep := -1
	for _, info := range v.CompiledTraces() {
		for i := range info.Steps {
			if info.Steps[i].Check != nil {
				target, checkStep = info, i
				break
			}
		}
		if target != nil {
			break
		}
	}
	if target == nil {
		t.Fatal("no compiled trace with a fused check (mutant corpus needs one)")
	}
	requireOK(t, verify.CertifyTrace(v, target))

	cmpStep, staticExit := -1, -1
	for i := range target.Steps {
		st := &target.Steps[i]
		if cmpStep == -1 && st.Inst.Op == isa.CMP &&
			i+1 < len(target.Steps) && target.Steps[i+1].Inst.Op.IsCondJump() {
			cmpStep = i
		}
	}
	for i := range target.Exits {
		if !target.Exits[i].Dynamic {
			staticExit = i
			break
		}
	}
	if cmpStep == -1 || staticExit == -1 {
		t.Fatalf("trace shape unsuitable: check=%d cmp=%d staticExit=%d",
			checkStep, cmpStep, staticExit)
	}

	mutants := map[string]func(*vm.TraceInfo){
		"dropped-check": func(m *vm.TraceInfo) {
			m.Steps[checkStep].Check = nil
		},
		"check-cost-drift": func(m *vm.TraceInfo) {
			// The trace bound follows the check's, so only the
			// comparison with the runtime's plan can catch it.
			m.Steps[checkStep].Check.MaxCost++
			m.MaxCost++
		},
		"wrong-spill-cycles": func(m *vm.TraceInfo) {
			m.Exits[len(m.Exits)-1].Cycles++
		},
		"wrong-spill-retired": func(m *vm.TraceInfo) {
			m.Exits[0].Retired++
		},
		"wrong-spill-rip": func(m *vm.TraceInfo) {
			m.Exits[staticExit].RIP += 4
		},
		"stale-flags": func(m *vm.TraceInfo) {
			m.Steps[cmpStep].FlagsElided = true
		},
		"wrong-cost": func(m *vm.TraceInfo) {
			m.Steps[0].Cost++
		},
	}
	for name, mutate := range mutants {
		t.Run(name, func(t *testing.T) {
			mut := copyInfo(target)
			mutate(mut)
			rep := verify.CertifyTrace(v, mut)
			if rep.OK() {
				t.Fatalf("certifier accepted the %s mutant", name)
			}
			for _, viol := range rep.Violations {
				if viol.Kind != verify.KindTrace {
					t.Errorf("unexpected violation kind %s: %s", viol.Kind, viol.Detail)
				}
			}
		})
	}
}
