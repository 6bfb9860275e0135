package vm_test

import (
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// chainProgram builds a workload with every chain-edge shape: a loop
// (taken back-edge), a non-taken conditional (fall-through edge), direct
// calls/returns, and an indirect jump whose target alternates between two
// labels (exercising the one-entry BTB retarget path).
func chainProgram(b *asm.Builder) {
	b.Func("main")
	b.MovRI(isa.RAX, 0)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.AluRI(isa.CMP, isa.RCX, 0)
	b.Jcc(isa.JE, "even") // alternates taken / not taken
	b.LoadAddr(isa.RDX, "odd", 0)
	b.Jmp("dispatch")
	b.Label("even")
	b.LoadAddr(isa.RDX, "evenbody", 0)
	b.Label("dispatch")
	// Indirect jump: the target register alternates every iteration.
	b.Emit(isa.Inst{Op: isa.JMP, Form: isa.FR, Reg: isa.RDX})
	b.Label("odd")
	b.AluRI(isa.ADD, isa.RAX, 3)
	b.Jmp("join")
	b.Label("evenbody")
	b.AluRI(isa.ADD, isa.RAX, 1)
	b.Label("join")
	b.AluRI(isa.XOR, isa.RCX, 1)
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.AluRI(isa.CMP, isa.RBX, 400)
	b.Jcc(isa.JL, "loop")
	b.Ret()
}

// runChainVM executes the given binary with the given knobs and returns
// the VM plus its telemetry snapshot.
func runChainVM(t *testing.T, bin *relf.Binary, noChain bool) (*vm.VM, *telemetry.Snapshot) {
	t.Helper()
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 100_000_000
	v.NoChain = noChain
	reg := telemetry.New()
	v.AttachTelemetry(reg)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatalf("load: %v", err)
	}
	if err := v.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return v, reg.Snapshot()
}

// TestChainIdentityAndHits checks that chaining changes nothing
// guest-visible while absorbing nearly all block exits on a loop-heavy
// workload, and that the alternating indirect target keeps retargeting
// the BTB slot without misdirecting execution.
func TestChainIdentityAndHits(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	chainProgram(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	chained, chainTel := runChainVM(t, bin, false)
	plain, plainTel := runChainVM(t, bin, true)

	if chained.ExitCode != plain.ExitCode || chained.Cycles != plain.Cycles ||
		chained.Insts != plain.Insts {
		t.Fatalf("chain/no-chain divergence: exit %d/%d cycles %d/%d insts %d/%d",
			chained.ExitCode, plain.ExitCode, chained.Cycles, plain.Cycles,
			chained.Insts, plain.Insts)
	}
	// 200 even + 200 odd iterations: 200*1 + 200*3.
	if chained.ExitCode != 800 {
		t.Fatalf("exit = %d, want 800", chained.ExitCode)
	}
	hits := chainTel.Counters["vm.icache.chain.hits"]
	misses := chainTel.Counters["vm.icache.chain.misses"]
	if hits == 0 {
		t.Fatal("no chain hits on a loop-heavy workload")
	}
	// The alternating indirect jump defeats its BTB slot every iteration,
	// so misses stay proportional to iterations — but every static edge
	// (loop back-edge, conditionals, joins) must chain.
	if hits < misses {
		t.Errorf("chain hits %d < misses %d; static edges not chaining", hits, misses)
	}
	if got := plainTel.Counters["vm.icache.chain.hits"]; got != 0 {
		t.Errorf("NoChain run recorded %d chain hits", got)
	}
}

// TestChainFlushICache checks that FlushICache severs chained successors:
// after code is rewritten in place, execution must decode the new code,
// not follow a stale chain into the old blocks.
func TestChainFlushICache(t *testing.T) {
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 7)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 1_000_000
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatal(err)
	}
	entry := v.RIP
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 7 {
		t.Fatalf("first run exit = %d", v.ExitCode)
	}

	// Patch the MOV immediate in place (the text section is mapped r-x;
	// flip it writable for the patch), flush, and re-run.
	text := bin.Section(".text")
	m.Protect(text.Addr, uint64(len(text.Data)), mem.PermRW)
	// MOV r,imm encoding: find the imm bytes of "MOV RAX, 7" at entry.
	var buf [16]byte
	if err := m.ReadAt(entry, buf[:]); err != nil {
		t.Fatal(err)
	}
	patched := false
	for i := range buf {
		if buf[i] == 7 {
			if err := m.Store(entry+uint64(i), 1, 9); err != nil {
				t.Fatal(err)
			}
			patched = true
			break
		}
	}
	if !patched {
		t.Fatal("could not locate immediate to patch")
	}
	m.Protect(text.Addr, uint64(len(text.Data)), mem.PermRX)
	v.FlushICache()

	v.Halted = false
	v.RIP = entry
	v.Regs[isa.RSP] = relf.DefaultStackTop - 64
	if err := v.Mem.Store(v.Regs[isa.RSP]-8, 8, vm.ExitSentinel); err != nil {
		t.Fatal(err)
	}
	v.Regs[isa.RSP] -= 8
	if err := v.Run(); err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 9 {
		t.Fatalf("post-flush exit = %d, want 9 (stale block or chain served)", v.ExitCode)
	}
}
