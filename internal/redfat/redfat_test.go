package redfat_test

import (
	"reflect"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/verify"
	"redfat/internal/vm"
)

// buildHeapProgram assembles a program that mallocs a 40-byte array and
// stores to array[idx] for each input index (8-byte elements), then frees
// and returns the number of stores done.
func buildHeapProgram(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX) // array
	b.MovRI(isa.R12, 0)       // store counter
	b.Label("loop")
	b.CallImport("rf_input") // index, or sentinel 999 to stop
	b.AluRI(isa.CMP, isa.RAX, 999)
	b.Jcc(isa.JE, "done")
	b.MovRI(isa.RCX, 7)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 8, 0), isa.RCX, 8) // array[i] = 7
	b.AluRI(isa.ADD, isa.R12, 1)
	b.Jmp("loop")
	b.Label("done")
	b.MovRR(isa.RDI, isa.RBX)
	b.CallImport("free")
	b.MovRR(isa.RAX, isa.R12)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestHardenedBenignRun(t *testing.T) {
	bin := buildHeapProgram(t)
	for _, opt := range []redfat.Options{
		{CheckReads: true, SizeCheck: true},                                   // redzone, unoptimized
		redfat.Defaults(),                                                     // full, optimized
		{LowFat: true, CheckReads: true, Elim: true},                          // +elim only
		{LowFat: true, CheckReads: true, Batch: true},                         // batch, no elim
		{LowFat: true, SizeCheck: true, Elim: true, Batch: true, Merge: true}, // -reads
	} {
		hard, rep, err := redfat.Harden(bin, opt)
		if err != nil {
			t.Fatalf("Harden(%+v): %v", opt, err)
		}
		if rep.Checks == 0 {
			t.Fatalf("no checks emitted for %+v", opt)
		}
		// In-bounds indices 0..4.
		v, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: []uint64{0, 1, 2, 3, 4, 999}, Abort: true,
		})
		if err != nil {
			t.Fatalf("benign run failed (%+v): %v", opt, err)
		}
		if v.ExitCode != 5 {
			t.Errorf("exit = %d, want 5 (%+v)", v.ExitCode, opt)
		}
		if len(v.Errors) != 0 {
			t.Errorf("benign run reported errors: %v (%+v)", v.Errors, opt)
		}
		_ = rt
	}
}

func TestHardenedMatchesBaseline(t *testing.T) {
	// Differential: the hardened binary must compute the same result as
	// the original on error-free input.
	bin := buildHeapProgram(t)
	input := []uint64{4, 2, 0, 3, 999}
	base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input})
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hv, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input, Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	if hv.ExitCode != base.ExitCode {
		t.Errorf("hardened exit %d != baseline %d", hv.ExitCode, base.ExitCode)
	}
	if hv.Cycles <= base.Cycles {
		t.Errorf("hardened run not slower: %d vs %d cycles", hv.Cycles, base.Cycles)
	}
}

func TestDetectsIncrementalOverflow(t *testing.T) {
	// array[5] on a 40-byte (5×8) array: one element past the end, into
	// the adjacent redzone. Caught by the redzone component alone.
	bin := buildHeapProgram(t)
	for _, lowfatOn := range []bool{false, true} {
		opt := redfat.Defaults()
		opt.LowFat = lowfatOn
		hard, _, err := redfat.Harden(bin, opt)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: []uint64{0, 5, 999}, Abort: true,
		})
		me, ok := err.(*vm.MemError)
		if !ok {
			t.Fatalf("lowfat=%v: err = %v, want MemError", lowfatOn, err)
		}
		if me.Kind != vm.ErrOOBWrite {
			t.Errorf("lowfat=%v: kind = %v", lowfatOn, me.Kind)
		}
	}
}

func TestDetectsNonIncrementalOverflow(t *testing.T) {
	// array[40]: skips far past any redzone into another object region.
	// The redzone-only check CANNOT catch this if it lands inside another
	// allocated object; the LowFat component catches it regardless
	// (paper Problem #1 / Table 2).
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	// Allocate a second object of the same size class so the overflow
	// target is an allocated object (redzone check passes there).
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.R13, isa.RAX)
	b.CallImport("rf_input") // attacker-controlled index
	b.MovRI(isa.RCX, 0x41)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 8, 0), isa.RCX, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	// The low-fat slot for 40+16 bytes is 64 bytes; the next slot's
	// object area starts 64 bytes (8 elements) after the first. Index 8
	// lands 16 bytes into the neighbour slot = its object start:
	// allocated memory, invisible to redzones.
	attackerIdx := uint64(8)

	full, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunHardened(full, rtlib.RunConfig{
		Input: []uint64{attackerIdx}, Abort: true,
	})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrOOBWrite {
		t.Errorf("full check missed non-incremental overflow: %v", err)
	}

	rzOnly := redfat.Defaults()
	rzOnly.LowFat = false
	rz, _, err := redfat.Harden(bin, rzOnly)
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rtlib.RunHardened(rz, rtlib.RunConfig{
		Input: []uint64{attackerIdx}, Abort: true,
	})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("redzone-only unexpectedly caught the skip: %v %v", err, v.Errors)
	}
}

func TestDetectsUseAfterFree(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 64)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRR(isa.RDI, isa.RAX)
	b.CallImport("free")
	b.StoreI(isa.RBX, 0, 0x42, 8) // write after free
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrUseAfterFree {
		t.Errorf("use-after-free not detected: %v", err)
	}
}

func TestDetectsRedzoneUnderflow(t *testing.T) {
	// array[-1] touches the object's own prepended redzone/metadata.
	bin := buildHeapProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: []uint64{^uint64(0), 999}, Abort: true, // index −1
	})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrOOBWrite {
		t.Errorf("redzone underflow not detected: %v", err)
	}
}

func TestPaddingOverflowDetected(t *testing.T) {
	// A 40-byte request occupies a 64-byte slot (with 16-byte redzone →
	// 8 bytes padding). Writing at offset 40 is within the slot but past
	// the malloc SIZE: the accurate SIZE-based check must catch it
	// (paper §4.2: "overflows into padding will also be detected").
	bin := buildHeapProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: []uint64{5, 999}, Abort: true, // index 5 = offset 40 = padding
	})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrOOBWrite {
		t.Errorf("padding overflow not detected: %v", err)
	}
}

func TestWriteOnlyModeSkipsReads(t *testing.T) {
	// An OOB *read* must pass under -reads (write-only) hardening.
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc") // neighbour object so the read hits mapped memory
	b.Load(isa.RAX, isa.RBX, 64, 8)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	noReads := redfat.Defaults()
	noReads.CheckReads = false
	hard, rep, err := redfat.Harden(bin, noReads)
	if err != nil {
		t.Fatal(err)
	}
	if rep.SkippedReads == 0 {
		t.Error("no reads skipped in write-only mode")
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("write-only mode flagged a read: %v %v", err, v.Errors)
	}

	// With read checking the same program is caught.
	hard2, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunHardened(hard2, rtlib.RunConfig{Abort: true})
	if me, ok := err.(*vm.MemError); !ok || me.Kind != vm.ErrOOBRead {
		t.Errorf("OOB read not detected with read checking: %v", err)
	}
}

func TestFalsePositiveAndAllowList(t *testing.T) {
	// The C anti-idiom (array-K)[i]: the base pointer is out of bounds
	// but accesses are valid (paper snippet (c), Problem #2).
	const K = 100 // bytes
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 140)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRR(isa.R12, isa.RAX)    // keep the idiomatic pointer too
	b.StoreI(isa.R12, 0, 5, 8)   // idiomatic access: always passes LowFat
	b.AluRI(isa.SUB, isa.RBX, K) // array -= K: intentional OOB pointer
	b.CallImport("rf_input")     // i (valid: K..139)
	b.MovRI(isa.RCX, 1)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 1, 0), isa.RCX, 1) // array[i] = 1
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	validInput := []uint64{K + 4}

	// 1. Naive full hardening (no allow-list): false positive.
	full, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = rtlib.RunHardened(full, rtlib.RunConfig{Input: validInput, Abort: true})
	if _, ok := err.(*vm.MemError); !ok {
		t.Fatalf("expected false positive from naive lowfat hardening, got %v", err)
	}

	// 2. Profiling phase: build the profile binary, run the test suite,
	// generate the allow-list (paper Fig. 5).
	profOpt := redfat.Defaults()
	profOpt.Profile = true
	prof, _, err := redfat.Harden(bin, profOpt)
	if err != nil {
		t.Fatal(err)
	}
	_, rt, err := rtlib.RunHardened(prof, rtlib.RunConfig{Input: validInput})
	if err != nil {
		t.Fatalf("profile run: %v", err)
	}
	allow := make(map[uint64]bool)
	var flagged int
	for i := range rt.Checks {
		st := rt.Stats[i]
		if st.Execs > 0 && st.LowFatFails == 0 {
			allow[rt.Checks[i].PC] = true
		}
		if st.LowFatFails > 0 {
			flagged++
		}
	}
	if flagged == 0 {
		t.Fatal("profiling did not flag the anti-idiom site")
	}

	// 3. Production phase with the allow-list: no false positive, and
	// the execution result matches the baseline.
	prodOpt := redfat.Defaults()
	prodOpt.AllowList = allow
	prod, rep, err := redfat.Harden(bin, prodOpt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FullChecks == 0 {
		t.Error("allow-list left no full checks at all")
	}
	v, _, err := rtlib.RunHardened(prod, rtlib.RunConfig{Input: validInput, Abort: true})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("allow-listed binary still false-positives: %v %v", err, v.Errors)
	}
	if v.ExitCode != 0 {
		t.Errorf("exit = %d", v.ExitCode)
	}
}

func TestEliminationFilters(t *testing.T) {
	cases := []struct {
		m    isa.Mem
		elim bool
	}{
		{isa.Mem{Base: isa.RSP, Index: isa.RegNone, Scale: 1, Disp: -8}, true},
		{isa.Mem{Base: isa.RIP, Index: isa.RegNone, Scale: 1, Disp: 0x1000}, true},
		{isa.Mem{Base: isa.RegNone, Index: isa.RegNone, Scale: 1, Disp: 0x601000}, true},
		{isa.Mem{Base: isa.RAX, Index: isa.RegNone, Scale: 1}, false},
		{isa.Mem{Base: isa.RSP, Index: isa.RCX, Scale: 8}, false}, // index can reach anywhere
		{isa.Mem{Base: isa.RegNone, Index: isa.RBX, Scale: 1, Disp: 0}, false},
	}
	for _, c := range cases {
		if got := redfat.Eliminable(c.m); got != c.elim {
			t.Errorf("Eliminable(%v) = %v, want %v", c.m, got, c.elim)
		}
	}
}

func TestOptimizationsReduceCycles(t *testing.T) {
	// Each optimization level must not be slower than the previous
	// (paper Table 1 ordering: unopt ≥ +elim ≥ +batch ≥ +merge ≥ -size
	// ≥ -reads), measured on a store-heavy loop.
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 4096)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	// Several same-base stores: batchable and mergeable.
	b.StoreI(isa.RBX, 0, 1, 8)
	b.StoreI(isa.RBX, 8, 2, 8)
	b.StoreI(isa.RBX, 16, 3, 8)
	b.Load(isa.RAX, isa.RBX, 8, 8)
	// A stack spill: eliminable.
	b.Store(isa.RSP, -16, isa.RAX, 8)
	b.AluRI(isa.ADD, isa.RBX, 24)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, 100)
	b.Jcc(isa.JL, "loop")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}

	configs := []redfat.Options{
		{LowFat: true, CheckReads: true, SizeCheck: true},
		{LowFat: true, CheckReads: true, SizeCheck: true, Elim: true},
		{LowFat: true, CheckReads: true, SizeCheck: true, Elim: true, Batch: true},
		{LowFat: true, CheckReads: true, SizeCheck: true, Elim: true, Batch: true, Merge: true},
		{LowFat: true, CheckReads: true, Elim: true, Batch: true, Merge: true},
		{LowFat: true, Elim: true, Batch: true, Merge: true},
	}
	var prev uint64 = ^uint64(0)
	for ci, opt := range configs {
		hard, _, err := redfat.Harden(bin, opt)
		if err != nil {
			t.Fatal(err)
		}
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
		if err != nil {
			t.Fatalf("config %d: %v", ci, err)
		}
		if v.Cycles > prev {
			t.Errorf("config %d (%d cycles) slower than config %d (%d cycles)",
				ci, v.Cycles, ci-1, prev)
		}
		prev = v.Cycles
	}
}

func TestStrippedBinaryHardens(t *testing.T) {
	bin := buildHeapProgram(t)
	bin.Strip()
	hard, rep, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatalf("hardening stripped binary: %v", err)
	}
	if rep.Checks == 0 {
		t.Fatal("no checks on stripped binary")
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: []uint64{0, 1, 999}, Abort: true,
	})
	if err != nil || v.ExitCode != 2 {
		t.Errorf("stripped hardened run: exit=%d err=%v", v.ExitCode, err)
	}
}

func TestPICBinaryHardens(t *testing.T) {
	b := asm.NewBuilder(asm.Options{PIC: true})
	b.GlobalU64("counter", 0)
	b.Func("main")
	b.MovRI(isa.RDI, 32)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.StoreI(isa.RBX, 0, 11, 8)
	b.LoadGlobal(isa.RCX, "counter", 0, 8)
	b.AluRM(isa.ADD, isa.RCX, asm.MemBID(isa.RBX, isa.RegNone, 1, 0), 8)
	b.StoreGlobal("counter", 0, isa.RCX, 8)
	b.LoadGlobal(isa.RAX, "counter", 0, 8)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	bin.Rebase(0x2000_0000_0000) // PIE load address (non-fat region)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
	if err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 11 {
		t.Errorf("exit = %d, want 11", v.ExitCode)
	}
}

func TestDoubleHardenRejected(t *testing.T) {
	bin := buildHeapProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := redfat.Harden(hard, redfat.Defaults()); err == nil {
		t.Error("double instrumentation accepted")
	}
}

func TestHardenDeterministic(t *testing.T) {
	bin := buildHeapProgram(t)
	h1, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	h2, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	b1, err := h1.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	b2, err := h2.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Error("hardening is not deterministic")
	}
}

// noElim is Defaults without syntactic elimination, under which a
// RIP-relative operand is checked and so can head a batch.
func noElim() redfat.Options {
	opt := redfat.Defaults()
	opt.Elim = false
	return opt
}

// failedPatch lists programs at the edge of patching. Each mentions a
// RIP-relative load the trampoline region is out of rel32 reach of, so
// no trampoline can hold it.
var failedPatch = []struct {
	name, src string
	opt       redfat.Options
	unprot    []int // indices of the instructions left unprotected
	checked   int   // index of the one instruction checked, or -1
	// Operands, Eliminated, ElimDominated, Instrumented, FailedSites,
	// Checks, FullChecks, MergedAway, Batches, T3 patches.
	counters [10]int
}{
	// The first batch, headed by the load, fails under every tactic.
	// The third instruction's check was dropped under the second's, so
	// the repair round gives it its own.
	{"repaired", ".func main\n mov -0x7ffffff0(%rip), %rcx\n mov (%rbx), %rax\n mov (%rbx), %rdx\n ret\n",
		noElim(), []int{0, 1}, 2, [10]int{3, 0, 0, 1, 2, 1, 1, 0, 1, 1}},
	{"unrepaired", ".func main\n mov -0x7ffffff0(%rip), %rcx\n mov (%rbx), %rax\n ret\n",
		noElim(), []int{0, 1}, -1, [10]int{2, 0, 0, 0, 2, 0, 0, 0, 0, 0}},
	// The head is too short for a jump, and byte stealing would
	// displace the load: the head is patched alone with a trap.
	{"t3-fallback", ".func main\n mov (%rbx), %rax\n mov -0x7ffffff0(%rip), %rcx\n ret\n",
		redfat.Defaults(), nil, 0, [10]int{2, 1, 0, 1, 0, 1, 1, 0, 1, 1}},
}

// TestFailedPatch: a site whose follower cannot be displaced falls back
// to a trap patch; an operand whose patch fails under every tactic is
// counted once, as unprotected, and listed in .rf.unprot; a dependent of
// its dropped check gets a check of its own; and the validators accept
// the image.
func TestFailedPatch(t *testing.T) {
	for _, fp := range failedPatch {
		t.Run(fp.name, func(t *testing.T) {
			bin, err := asm.Assemble(fp.src)
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Disassemble(bin)
			if err != nil {
				t.Fatal(err)
			}
			hard, rep, err := redfat.Harden(bin, fp.opt)
			if err != nil {
				t.Fatal(err)
			}
			got := [10]int{rep.Operands, rep.Eliminated, rep.ElimDominated, rep.Instrumented,
				rep.FailedSites, rep.Checks, rep.FullChecks, rep.MergedAway, rep.Batches, rep.Rewrite.T3}
			if got != fp.counters {
				t.Errorf("report counters %v, want %v", got, fp.counters)
			}

			want := map[uint64]uint64{}
			for _, i := range fp.unprot {
				want[prog.Insts[i].Addr] = 0
			}
			unprot := map[uint64]uint64{}
			if sec := hard.Section(redfat.UnprotSection); sec != nil {
				if unprot, err = relf.DecodePatchTable(sec.Data); err != nil {
					t.Fatal(err)
				}
			}
			if !reflect.DeepEqual(unprot, want) {
				t.Errorf(".rf.unprot = %v, want %v", unprot, want)
			}

			recs, err := rtlib.SitesFrom(hard)
			if err != nil {
				t.Fatal(err)
			}
			if fp.checked < 0 {
				if len(recs) != 0 {
					t.Errorf("check records %+v, want none", recs)
				}
			} else if dep := prog.Insts[fp.checked]; len(recs) != 1 || recs[0].PC != dep.Addr ||
				recs[0].Mode != rtlib.ModeFull || recs[0].Operand != dep.Inst.Mem ||
				recs[0].Len != 8 || !recs[0].Leader || recs[0].Merged != 1 {
				t.Errorf("check records %+v, want one full leader check of %s at %#x",
					recs, dep.Inst.Mem.String(), dep.Addr)
			} else if text := hard.Text(); text.Data[dep.Addr-text.Addr] != byte(isa.TRAP) {
				t.Errorf("checked site %#x is not patched with a trap", dep.Addr)
			}

			for name, validate := range map[string]func() (*verify.Report, error){
				"Verify":     func() (*verify.Report, error) { return verify.Verify(bin, hard) },
				"Structural": func() (*verify.Report, error) { return verify.Structural(hard) },
			} {
				vrep, err := validate()
				if err != nil {
					t.Fatal(err)
				}
				if !vrep.OK() {
					t.Errorf("%s rejects the image: %+v", name, vrep.Violations)
				}
			}
			agree(t, fp.name, bin, fp.opt)
		})
	}
}
