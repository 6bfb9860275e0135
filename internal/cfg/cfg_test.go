package cfg_test

import (
	"testing"

	"redfat/internal/asm"
	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/relf"
)

func disasm(t *testing.T, build func(b *asm.Builder)) *cfg.Program {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	build(b)
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	p, err := cfg.Disassemble(bin)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDisassembleLinear(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 1)
		b.AluRI(isa.ADD, isa.RAX, 2)
		b.Ret()
	})
	if len(p.Insts) != 3 {
		t.Fatalf("insts = %d, want 3", len(p.Insts))
	}
	if p.Insts[0].Addr != relf.DefaultTextBase {
		t.Errorf("first inst at %#x", p.Insts[0].Addr)
	}
	if i, ok := p.InstAt(p.Insts[1].Addr); !ok || i != 1 {
		t.Errorf("InstAt mid = %d, %v", i, ok)
	}
	if _, ok := p.InstAt(p.Insts[1].Addr + 1); ok {
		t.Error("InstAt accepted a mid-instruction address")
	}
}

func TestLeaderRecovery(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main") // leader: entry
		b.MovRI(isa.RAX, 0)
		b.Jcc(isa.JE, "target")
		b.MovRI(isa.RBX, 1) // leader: fall-through of a branch
		b.Label("target")   // leader: branch target
		b.MovRI(isa.RCX, 2)
		b.Ret()
		b.Func("helper") // leader: function symbol + post-RET
		b.Ret()
	})
	var leaders []int
	for i, di := range p.Insts {
		if p.IsLeader(di.Addr) {
			leaders = append(leaders, i)
		}
	}
	// entry(0), fallthrough(2)... indices: 0 mov, 1 jcc, 2 mov(fall),
	// 3 mov(target — same as fall? no: fall-through IS index 2; target is 3), 4 ret, 5 ret.
	want := map[int]bool{0: true, 2: true, 3: true, 5: true}
	for _, l := range leaders {
		if !want[l] {
			t.Errorf("unexpected leader at index %d", l)
		}
		delete(want, l)
	}
	for missing := range want {
		t.Errorf("missing leader at index %d", missing)
	}
}

func TestConservativeLeaderFromImmediate(t *testing.T) {
	// An address-like immediate pointing into text marks a conservative
	// leader (potential indirect target).
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		b.LoadAddr(isa.RAX, "indirect", 0) // imm = address of "indirect"
		b.Ret()
		b.Func("indirect")
		b.Ret()
	})
	var found bool
	for _, di := range p.Insts {
		if di.Inst.Op == isa.RET && p.IsLeader(di.Addr) && di.Addr != p.Insts[0].Addr {
			found = true
		}
	}
	if !found {
		t.Error("address-taken function not marked as leader")
	}
}

func TestRegsReadWritten(t *testing.T) {
	cases := []struct {
		in          isa.Inst
		read, write []isa.Reg
	}{
		{isa.Inst{Op: isa.MOV, Form: isa.FRR, Reg: isa.RAX, Reg2: isa.RBX},
			[]isa.Reg{isa.RBX}, []isa.Reg{isa.RAX}},
		{isa.Inst{Op: isa.ADD, Form: isa.FRR, Reg: isa.RAX, Reg2: isa.RBX},
			[]isa.Reg{isa.RAX, isa.RBX}, []isa.Reg{isa.RAX}},
		{isa.Inst{Op: isa.MOV, Form: isa.FMR, Reg: isa.RCX, Size: 8,
			Mem: isa.Mem{Base: isa.RDI, Index: isa.RSI, Scale: 2}},
			[]isa.Reg{isa.RCX, isa.RDI, isa.RSI}, nil},
		{isa.Inst{Op: isa.MOV, Form: isa.FRM, Reg: isa.RCX, Size: 8,
			Mem: isa.Mem{Base: isa.RDI, Index: isa.RegNone, Scale: 1}},
			[]isa.Reg{isa.RDI}, []isa.Reg{isa.RCX}},
		{isa.Inst{Op: isa.PUSH, Form: isa.FR, Reg: isa.RBX},
			[]isa.Reg{isa.RBX, isa.RSP}, []isa.Reg{isa.RSP}},
		{isa.Inst{Op: isa.POP, Form: isa.FR, Reg: isa.RBX},
			[]isa.Reg{isa.RSP}, []isa.Reg{isa.RBX, isa.RSP}},
		{isa.Inst{Op: isa.UDIV, Form: isa.FR, Reg: isa.RCX},
			[]isa.Reg{isa.RAX, isa.RCX}, []isa.Reg{isa.RAX, isa.RDX}},
		{isa.Inst{Op: isa.CMP, Form: isa.FRI, Reg: isa.RAX, Imm: 1},
			[]isa.Reg{isa.RAX}, nil},
		{isa.Inst{Op: isa.SHR, Form: isa.FRR, Reg: isa.RAX, Reg2: isa.RCX},
			[]isa.Reg{isa.RAX, isa.RCX}, []isa.Reg{isa.RAX}},
	}
	for _, c := range cases {
		r, w := cfg.RegsRead(&c.in), cfg.RegsWritten(&c.in)
		for _, reg := range c.read {
			if !r.Has(reg) {
				t.Errorf("%v: %v not in reads", c.in.String(), reg)
			}
		}
		for _, reg := range c.write {
			if !w.Has(reg) {
				t.Errorf("%v: %v not in writes", c.in.String(), reg)
			}
		}
	}
	// Calls are conservative: everything.
	call := isa.Inst{Op: isa.RTCALL, Form: isa.FI}
	if cfg.RegsRead(&call) != cfg.AllRegs || cfg.RegsWritten(&call) != cfg.AllRegs {
		t.Error("RTCALL not treated conservatively")
	}
}

func TestDeadRegsAt(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 1)                // 0: RAX written before any read → dead at 0
		b.MovRI(isa.RCX, 2)                // 1
		b.AluRR(isa.ADD, isa.RAX, isa.RCX) // 2
		b.Ret()
	})
	dead := p.DeadRegsAt(0)
	if !dead.Has(isa.RAX) || !dead.Has(isa.RCX) {
		t.Errorf("dead at 0 = %v, want rax+rcx", dead)
	}
	// At index 2, RAX is read — not dead.
	dead = p.DeadRegsAt(2)
	if dead.Has(isa.RAX) || dead.Has(isa.RCX) {
		t.Errorf("dead at 2 = %v, want neither", dead)
	}
	// RSP is never dead.
	if p.DeadRegsAt(0).Has(isa.RSP) {
		t.Error("RSP reported dead")
	}
}

func TestFlagsDeadAt(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 0)          // 0
		b.AluRI(isa.CMP, isa.RAX, 1) // 1: writes flags → dead before it
		b.Jcc(isa.JE, "out")         // 2: reads flags
		b.MovRI(isa.RBX, 1)          // 3
		b.Label("out")
		b.Ret() // 4
	})
	if !p.FlagsDeadAt(0) {
		t.Error("flags live before the CMP that kills them")
	}
	if p.FlagsDeadAt(2) {
		t.Error("flags dead right before a conditional jump")
	}
}

func TestBatches(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		// Block 1: three same-base stores — one batch (Example 2 shape).
		b.StoreI(isa.RAX, 0, 1, 8)  // 0
		b.StoreI(isa.RAX, 8, 2, 8)  // 1
		b.StoreI(isa.RAX, 16, 3, 8) // 2
		// Redefinition of the base register splits the batch.
		b.MovRI(isa.RAX, 0)         // 3
		b.StoreI(isa.RAX, 24, 4, 8) // 4
		// A branch ends the block.
		b.Jcc(isa.JE, "next") // 5
		b.Label("next")
		b.StoreI(isa.RBX, 0, 5, 8) // 6
		b.Ret()
	})
	all := func(int) bool { return true }
	batches := p.Batches(func(i int) bool { return all(i) && p.Insts[i].Inst.IsMemAccess() }, 8)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3: %+v", len(batches), batches)
	}
	if len(batches[0].Members) != 3 {
		t.Errorf("first batch = %v, want members 0,1,2", batches[0].Members)
	}
	if len(batches[1].Members) != 1 || batches[1].Members[0] != 4 {
		t.Errorf("second batch = %v, want [4]", batches[1].Members)
	}
	if len(batches[2].Members) != 1 || batches[2].Members[0] != 6 {
		t.Errorf("third batch = %v, want [6]", batches[2].Members)
	}
}

func TestBatchesRespectIndexWrites(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		b.StoreM(asm.MemBID(isa.RAX, isa.RCX, 8, 0), isa.RDX, 8) // 0
		b.AluRI(isa.ADD, isa.RCX, 1)                             // 1: index changes
		b.StoreM(asm.MemBID(isa.RAX, isa.RCX, 8, 0), isa.RDX, 8) // 2
		b.Ret()
	})
	batches := p.Batches(func(i int) bool { return p.Insts[i].Inst.IsMemAccess() }, 8)
	if len(batches) != 2 {
		t.Fatalf("batches = %d, want 2 (index redefined between accesses)", len(batches))
	}
}

func TestBatchesMaxWidth(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		for i := 0; i < 6; i++ {
			b.StoreI(isa.RAX, int32(8*i), int64(i), 8)
		}
		b.Ret()
	})
	batches := p.Batches(func(i int) bool { return p.Insts[i].Inst.IsMemAccess() }, 2)
	if len(batches) != 3 {
		t.Fatalf("batches = %d, want 3 with max width 2", len(batches))
	}
	for _, bt := range batches {
		if len(bt.Members) > 2 {
			t.Errorf("batch exceeds width: %v", bt.Members)
		}
	}
}

func TestBlockEnd(t *testing.T) {
	p := disasm(t, func(b *asm.Builder) {
		b.Func("main")
		b.MovRI(isa.RAX, 1) // 0
		b.MovRI(isa.RBX, 2) // 1
		b.Jmp("end")        // 2: block ends after the branch
		b.Label("end")
		b.Ret() // 3
	})
	if got := p.BlockEnd(0); got != 3 {
		t.Errorf("BlockEnd(0) = %d, want 3", got)
	}
	if got := p.BlockEnd(3); got != 4 {
		t.Errorf("BlockEnd(3) = %d, want 4", got)
	}
}

func TestDisassembleErrors(t *testing.T) {
	if _, err := cfg.Disassemble(&relf.Binary{}); err == nil {
		t.Error("binary without text accepted")
	}
	bad := &relf.Binary{}
	bad.AddSection(&relf.Section{Name: ".text", Kind: relf.SecText,
		Addr: 0x1000, Size: 2, Data: []byte{0x00, 0x00}, Exec: true})
	if _, err := cfg.Disassemble(bad); err == nil {
		t.Error("undecodable text accepted")
	}
	for _, text := range []*relf.Section{
		{Name: ".text", Kind: relf.SecText, Addr: 0x1000, Exec: true},
		{Name: ".text", Kind: relf.SecText, Addr: ^uint64(0), Size: 1,
			Data: []byte{byte(isa.RET)}, Exec: true},
	} {
		bin := &relf.Binary{}
		bin.AddSection(text)
		if _, err := cfg.Disassemble(bin); err == nil {
			t.Errorf("text of %d bytes at %#x accepted", len(text.Data), text.Addr)
		}
	}
}

func TestRegSet(t *testing.T) {
	var s cfg.RegSet
	s = s.Add(isa.RAX).Add(isa.R15)
	if !s.Has(isa.RAX) || !s.Has(isa.R15) || s.Has(isa.RBX) {
		t.Error("RegSet membership broken")
	}
	if s.Count() != 2 {
		t.Errorf("Count = %d", s.Count())
	}
	if s.Add(isa.RegNone) != s || s.Add(isa.RIP) != s {
		t.Error("pseudo registers changed the set")
	}
	o := cfg.RegSet(0).Add(isa.RBX)
	if s.Intersects(o) {
		t.Error("disjoint sets intersect")
	}
	if !s.Union(o).Has(isa.RBX) {
		t.Error("union missing member")
	}
}
