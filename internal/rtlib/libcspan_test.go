package rtlib_test

import (
	"strings"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/isa"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// buildProg assembles a single-function program.
func buildProg(t *testing.T, emit func(b *asm.Builder)) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	emit(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// hardenDefault hardens bin under the production configuration.
func hardenDefault(t *testing.T, bin *relf.Binary) *relf.Binary {
	t.Helper()
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	return hard
}

func TestCallocOverflowReturnsNull(t *testing.T) {
	// calloc(1<<32, 1<<32): n*size wraps to 0. The classic CWE-190 libc
	// bug is to allocate the wrapped (tiny) size and let the caller
	// overflow it; the fixed calloc must return NULL instead.
	bin := buildProg(t, func(b *asm.Builder) {
		b.Emit(isa.Inst{Op: isa.MOVABS, Form: isa.FRI, Reg: isa.RDI, Imm: 1 << 32})
		b.Emit(isa.Inst{Op: isa.MOVABS, Form: isa.FRI, Reg: isa.RSI, Imm: 1 << 32})
		b.CallImport("calloc")
		b.AluRI(isa.CMP, isa.RAX, 0)
		b.Jcc(isa.JE, "null")
		b.MovRI(isa.RAX, 9) // got a pointer for 2^64 bytes: the bug
		b.Ret()
		b.Label("null")
		// A sane request must still work and come back zeroed.
		b.MovRI(isa.RDI, 8)
		b.MovRI(isa.RSI, 8)
		b.CallImport("calloc")
		b.AluRI(isa.CMP, isa.RAX, 0)
		b.Jcc(isa.JE, "oom")
		b.Load(isa.RDX, isa.RAX, 0, 8)
		b.AluRI(isa.CMP, isa.RDX, 0)
		b.Jcc(isa.JNE, "dirty")
		b.MovRI(isa.RAX, 7)
		b.Ret()
		b.Label("oom")
		b.MovRI(isa.RAX, 8)
		b.Ret()
		b.Label("dirty")
		b.MovRI(isa.RAX, 10)
		b.Ret()
	})
	v, err := rtlib.RunBaseline(bin, rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 7 {
		t.Errorf("baseline calloc overflow: exit %d, want 7", v.ExitCode)
	}
	hv, _, err := rtlib.RunHardened(hardenDefault(t, bin), rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if hv.ExitCode != 7 {
		t.Errorf("hardened calloc overflow: exit %d, want 7", hv.ExitCode)
	}
}

// buildOverlapCopy builds: p = malloc(64), fill p[i]=i for i<48,
// fn(p+1, p, 32), then return sum of p[0..48) as the checksum.
func buildOverlapCopy(t *testing.T, fn string) *relf.Binary {
	return buildProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallImport("malloc")
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRI(isa.RCX, 0)
		b.Label("fill")
		b.StoreM(asm.MemBID(isa.RBX, isa.RCX, 1, 0), isa.RCX, 1)
		b.AluRI(isa.ADD, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 48)
		b.Jcc(isa.JL, "fill")
		b.MovRR(isa.RDI, isa.RBX)
		b.AluRI(isa.ADD, isa.RDI, 1) // dst = p+1
		b.MovRR(isa.RSI, isa.RBX)    // src = p
		b.MovRI(isa.RDX, 32)
		b.CallImport(fn)
		b.MovRI(isa.RAX, 0)
		b.MovRI(isa.RCX, 0)
		b.Label("sum")
		b.Emit(isa.Inst{Op: isa.MOVZX, Form: isa.FRM, Reg: isa.RDX, Size: 1,
			Mem: asm.MemBID(isa.RBX, isa.RCX, 1, 0)})
		b.AluRR(isa.ADD, isa.RAX, isa.RDX)
		b.AluRI(isa.ADD, isa.RCX, 1)
		b.AluRI(isa.CMP, isa.RCX, 48)
		b.Jcc(isa.JL, "sum")
		b.Ret()
	})
}

// overlapChecksum is the expected checksum after a *correct* overlapping
// forward move of 32 bytes from p to p+1: p[0]=0, p[1+i]=i for i<32,
// p[33..48) untouched.
func overlapChecksum() uint64 {
	buf := make([]byte, 48)
	for i := range buf {
		buf[i] = byte(i)
	}
	copy(buf[1:33], append([]byte(nil), buf[0:32]...))
	sum := uint64(0)
	for _, x := range buf {
		sum += uint64(x)
	}
	return sum
}

func TestMemmoveOverlapDefined(t *testing.T) {
	bin := buildOverlapCopy(t, "memmove")
	want := overlapChecksum()
	v, err := rtlib.RunBaseline(bin, rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != want {
		t.Errorf("baseline memmove overlap checksum %d, want %d", v.ExitCode, want)
	}
	hv, _, err := rtlib.RunHardened(hardenDefault(t, bin), rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if hv.ExitCode != want {
		t.Errorf("hardened memmove overlap checksum %d, want %d", hv.ExitCode, want)
	}
	if len(hv.Errors) != 0 {
		t.Errorf("overlapping memmove is defined; got %v", hv.Errors)
	}
}

func TestMemcpyOverlapReportedWhenHardened(t *testing.T) {
	bin := buildOverlapCopy(t, "memcpy")
	want := overlapChecksum()
	hv, _, err := rtlib.RunHardened(hardenDefault(t, bin), rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hv.Errors) != 1 || hv.Errors[0].Kind != vm.ErrOverlap {
		t.Fatalf("hardened memcpy overlap: errors %v, want one overlap report", hv.Errors)
	}
	// The hardened memcpy still performs a well-defined move, so the
	// program's result is deterministic alongside the report.
	if hv.ExitCode != want {
		t.Errorf("hardened memcpy overlap checksum %d, want %d", hv.ExitCode, want)
	}
	// With the span intrinsics off, the baseline binding stays silent
	// (real memcpy would silently produce direction-dependent garbage;
	// the model's bulk copy is forward, same as the checksum above).
	nv, _, err := rtlib.RunHardened(hardenDefault(t, bin), rtlib.RunConfig{Knobs: rtlib.Knobs{NoLibcCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	if len(nv.Errors) != 0 {
		t.Errorf("NoLibcCheck memcpy overlap still reported: %v", nv.Errors)
	}
}

func TestSpanUAFThroughLibcNeedsQuarantine(t *testing.T) {
	// memcpy from a freed object, with an intervening same-class
	// allocation: the quarantine keeps the slot free (span check reports
	// a use-after-free); without it the slot is reused and the stale
	// read silently hits the new object — the libc flavour of
	// TestQuarantinePolicy.
	bin := buildProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 40)
		b.CallImport("malloc")
		b.MovRR(isa.RBX, isa.RAX) // victim
		b.MovRI(isa.RDI, 64)
		b.CallImport("malloc")
		b.MovRR(isa.R13, isa.RAX) // dst
		b.MovRR(isa.RDI, isa.RBX)
		b.CallImport("free")
		b.MovRI(isa.RDI, 40)
		b.CallImport("malloc") // same class: reuses the slot if no quarantine
		b.MovRR(isa.RDI, isa.R13)
		b.MovRR(isa.RSI, isa.RBX) // dangling source
		b.MovRI(isa.RDX, 16)
		b.CallImport("memcpy")
		b.MovRI(isa.RAX, 0)
		b.Ret()
	})
	hard := hardenDefault(t, bin)
	_, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true})
	me, ok := err.(*vm.MemError)
	if !ok || me.Kind != vm.ErrUseAfterFree {
		t.Errorf("quarantined libc UaF not detected: %v", err)
	} else if !strings.Contains(me.Note, "memcpy source") {
		t.Errorf("detection note missing the operand: %q", me.Note)
	}
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Abort: true, Knobs: rtlib.Knobs{QuarantineBytes: -1}})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("without quarantine the reused-slot read should be silent: %v %v", err, v.Errors)
	}
}

func TestSpanOOBDetectionShape(t *testing.T) {
	// memset past the end of a 40-byte object: the report must carry the
	// OOB-write kind, the first out-of-bounds byte as the fault address,
	// and the allocation-site note — the same shape per-access
	// detections have.
	bin := buildProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 40)
		b.CallImport("malloc")
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRR(isa.RDI, isa.RBX)
		b.MovRI(isa.RSI, 0x41)
		b.MovRI(isa.RDX, 72) // 32 bytes past the end
		b.CallImport("memset")
		b.MovRI(isa.RAX, 0)
		b.Ret()
	})
	hv, _, err := rtlib.RunHardened(hardenDefault(t, bin), rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(hv.Errors) != 1 {
		t.Fatalf("errors = %v, want one OOB write", hv.Errors)
	}
	e := hv.Errors[0]
	if e.Kind != vm.ErrOOBWrite {
		t.Errorf("kind = %v, want OOB write", e.Kind)
	}
	if e.Component != "lowfat" {
		t.Errorf("component = %q, want lowfat", e.Component)
	}
	if !strings.Contains(e.Note, "memset destination") ||
		!strings.Contains(e.Note, "past the end of a 40-byte object allocated at") {
		t.Errorf("note = %q, want span-check allocation-site note", e.Note)
	}
	if e.PC == 0 || e.Addr == 0 {
		t.Errorf("missing PC/fault address: %+v", e)
	}
}

// buildSmashThenOp: main mallocs 40 bytes (64-byte slot: 8 slack bytes at
// obj+40), has the unprotected library overwrite the slack, then runs op.
func buildSmashThenOp(t *testing.T, op func(b *asm.Builder)) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	// lib_poke(obj+40, garbage): one unchecked 8-byte store into slack.
	b.MovRR(isa.RDI, isa.RBX)
	b.AluRI(isa.ADD, isa.RDI, 40)
	b.MovRI(isa.RSI, 0x1BADD00D)
	b.CallImport("lib_poke")
	op(b)
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func TestCanarySmashDetectedOnFree(t *testing.T) {
	lib := buildPokeLib(t)
	bin := buildSmashThenOp(t, func(b *asm.Builder) {
		b.MovRR(isa.RDI, isa.RBX)
		b.CallImport("free")
	})
	hard := hardenDefault(t, bin)
	_, _, err := rtlib.RunLinked(hard, []*relf.Binary{lib},
		rtlib.RunConfig{Abort: true, Knobs: rtlib.Knobs{Canary: true}})
	me, ok := err.(*vm.MemError)
	if !ok || me.Kind != vm.ErrCorruptMeta {
		t.Fatalf("smashed canary not detected on free: %v", err)
	}
	if me.Component != "redzone" {
		t.Errorf("component = %q, want redzone", me.Component)
	}
	// With the mode off the smash is invisible (the slack is dead bytes).
	v, _, err := rtlib.RunLinked(hard, []*relf.Binary{lib}, rtlib.RunConfig{Abort: true})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("canary off: smash should be silent: %v %v", err, v.Errors)
	}
}

func TestCanarySmashDetectedOnSpanCrossing(t *testing.T) {
	// No free: an in-bounds memset over the object triggers the span
	// check, whose canary verification notices the smashed slack.
	lib := buildPokeLib(t)
	bin := buildSmashThenOp(t, func(b *asm.Builder) {
		b.MovRR(isa.RDI, isa.RBX)
		b.MovRI(isa.RSI, 0)
		b.MovRI(isa.RDX, 40)
		b.CallImport("memset")
	})
	hard := hardenDefault(t, bin)
	v, _, err := rtlib.RunLinked(hard, []*relf.Binary{lib}, rtlib.RunConfig{Knobs: rtlib.Knobs{Canary: true}})
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range v.Errors {
		if e.Kind == vm.ErrCorruptMeta && strings.Contains(e.Note, "canary smashed") {
			found = true
		}
	}
	if !found {
		t.Errorf("span crossing missed the smashed canary: %v", v.Errors)
	}
}

func TestUnderAllocSelfTestDeterministic(t *testing.T) {
	// REDFAT_TEST mode: with UnderAllocEvery=1 every allocation records
	// SIZE one byte short, so touching the last requested byte becomes a
	// detection tagged as self-test. Randomness comes from vm.NextRand,
	// so two runs are bit-identical.
	bin := buildProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 40)
		b.CallImport("malloc")
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRR(isa.RDI, isa.RBX)
		b.MovRI(isa.RSI, 0x55)
		b.MovRI(isa.RDX, 40) // full requested size: last byte under-allocated
		b.CallImport("memset")
		b.MovRI(isa.RAX, 0)
		b.Ret()
	})
	hard := hardenDefault(t, bin)
	run := func() *vm.VM {
		v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Knobs: rtlib.Knobs{UnderAllocEvery: 1}})
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	a, b := run(), run()
	if len(a.Errors) == 0 {
		t.Fatal("under-allocation self-test induced no detection")
	}
	for _, e := range a.Errors {
		if !strings.Contains(e.Note, "self-test under-allocation") {
			t.Errorf("induced detection lacks the self-test tag: %q", e.Note)
		}
	}
	if a.Cycles != b.Cycles || len(a.Errors) != len(b.Errors) {
		t.Errorf("self-test mode not deterministic: %d/%d cycles, %d/%d errors",
			a.Cycles, b.Cycles, len(a.Errors), len(b.Errors))
	}
	// Mode off: the same program is clean.
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{})
	if err != nil || len(v.Errors) != 0 {
		t.Errorf("mode off: %v %v", err, v.Errors)
	}
}

func TestNoLibcCheckIdentityWithSeedBindings(t *testing.T) {
	// With NoLibcCheck and all allocator modes off, a hardened run must
	// be bit-identical (cycles, exit, detections) to the pre-intrinsic
	// seed behaviour — which the baseline bindings preserve. The twin
	// program uses every wrapped routine in bounds.
	bin := buildProg(t, func(b *asm.Builder) {
		b.MovRI(isa.RDI, 64)
		b.CallImport("malloc")
		b.MovRR(isa.RBX, isa.RAX)
		b.MovRI(isa.RDI, 64)
		b.CallImport("malloc")
		b.MovRR(isa.R13, isa.RAX)
		b.MovRR(isa.RDI, isa.RBX)
		b.MovRI(isa.RSI, 0x21)
		b.MovRI(isa.RDX, 63)
		b.CallImport("memset")
		b.StoreI(isa.RBX, 63, 0, 1)
		b.MovRR(isa.RDI, isa.R13)
		b.MovRR(isa.RSI, isa.RBX)
		b.CallImport("strcpy")
		b.MovRR(isa.RDI, isa.R13)
		b.CallImport("strlen")
		b.MovRR(isa.R14, isa.RAX)
		b.MovRR(isa.RDI, isa.RBX)
		b.MovRR(isa.RSI, isa.R13)
		b.CallImport("strcmp")
		b.AluRR(isa.ADD, isa.R14, isa.RAX)
		b.MovRR(isa.RDI, isa.RBX)
		b.CallImport("free")
		b.MovRR(isa.RDI, isa.R13)
		b.CallImport("free")
		b.MovRR(isa.RAX, isa.R14)
		b.Ret()
	})
	hard := hardenDefault(t, bin)
	on, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	off, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Knobs: rtlib.Knobs{NoLibcCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	if on.ExitCode != off.ExitCode {
		t.Errorf("exit differs: checks on %d, off %d", on.ExitCode, off.ExitCode)
	}
	if len(on.Errors) != 0 || len(off.Errors) != 0 {
		t.Errorf("in-bounds program reported: on=%v off=%v", on.Errors, off.Errors)
	}
	// The knob is guest-visible: span checks charge cycles, so the two
	// runs must differ — and each must be individually deterministic.
	if on.Cycles == off.Cycles {
		t.Errorf("span checks charged no cycles (both %d); knob is not guest-visible", on.Cycles)
	}
	off2, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Knobs: rtlib.Knobs{NoLibcCheck: true}})
	if err != nil {
		t.Fatal(err)
	}
	if off2.Cycles != off.Cycles {
		t.Errorf("NoLibcCheck runs diverge: %d vs %d cycles", off.Cycles, off2.Cycles)
	}
}
