package cfg_test

import (
	"encoding/binary"
	"testing"

	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/relf"
)

// The disassembler parses untrusted text bytes and metadata. It must
// either fail with an error or produce a Program whose dense indexes
// agree with address-keyed maps rebuilt here from Program.Insts, and on
// which the whole-program analyses run.

const (
	fuzzText = relf.DefaultTextBase
	fuzzData = relf.DefaultDataBase
)

// fuzzBinary lays text at fuzzText and data at fuzzData (as read-only
// data, where jump tables live), with entry and one function symbol at
// sym; jt, when non-empty, is the raw .rf.jt section.
func fuzzBinary(text, data []byte, entry, sym uint64, jt []byte) *relf.Binary {
	bin := &relf.Binary{Entry: entry}
	bin.AddSection(&relf.Section{Name: ".text", Kind: relf.SecText, Addr: fuzzText,
		Size: uint64(len(text)), Data: text, Exec: true})
	if len(data) > 0 {
		bin.AddSection(&relf.Section{Name: ".rodata", Kind: relf.SecROData, Addr: fuzzData,
			Size: uint64(len(data)), Data: data})
	}
	if len(jt) > 0 {
		bin.AddSection(&relf.Section{Name: relf.JumpTableSection, Kind: relf.SecMeta, Data: jt})
	}
	size := uint64(0)
	if end := fuzzText + uint64(len(text)); sym >= fuzzText && sym < end {
		size = end - sym
	}
	bin.Symbols = append(bin.Symbols, relf.Symbol{Name: "f", Addr: sym, Size: size, Func: true})
	return bin
}

// refLeaders recomputes the leader rules over an address-keyed map.
func refLeaders(p *cfg.Program, bin *relf.Binary) map[uint64]bool {
	starts := make(map[uint64]bool, len(p.Insts))
	for _, di := range p.Insts {
		starts[di.Addr] = true
	}
	lead := make(map[uint64]bool)
	mark := func(a uint64) {
		if starts[a] {
			lead[a] = true
		}
	}
	mark(bin.Entry)
	for _, s := range bin.Symbols {
		if s.Func {
			mark(s.Addr)
		}
	}
	for _, di := range p.Insts {
		in := &di.Inst
		next := di.Addr + uint64(in.Len)
		switch {
		case in.Op == isa.JMP || in.Op == isa.CALL:
			if in.Form == isa.FRel8 || in.Form == isa.FRel32 {
				mark(next + uint64(in.Imm))
			}
			mark(next)
		case in.Op.IsCondJump():
			mark(next + uint64(in.Imm))
			mark(next)
		case in.Op == isa.RET || in.Op == isa.HLT || in.Op == isa.RTCALL:
			mark(next)
		case in.Op == isa.LPAD:
			mark(di.Addr)
		}
		if in.Form == isa.FRI || in.Form == isa.FMI {
			mark(uint64(in.Imm))
		}
		if in.HasMem() && in.Mem.IsAbsolute() {
			mark(uint64(uint32(in.Mem.Disp)))
		}
	}
	if sec := bin.Section(relf.JumpTableSection); sec != nil {
		tables, err := relf.DecodeJumpTables(sec.Data)
		if err != nil {
			return lead
		}
		for _, t := range tables {
			s := bin.SectionAt(t.Addr)
			if s == nil {
				continue
			}
			for k := uint64(0); k < uint64(t.Entries); k++ {
				off := t.Addr - s.Addr + 8*k
				if off+8 > uint64(len(s.Data)) {
					break
				}
				mark(binary.LittleEndian.Uint64(s.Data[off:]))
			}
		}
	}
	return lead
}

// FuzzDisassemble checks InstAt, IsLeader and LeaderAt against maps, and
// runs the dataflow engine and the redundant-check analysis on every
// Program Disassemble accepts.
func FuzzDisassemble(f *testing.F) {
	f.Add(fuzzSample(f), []byte{}, uint64(fuzzText), uint64(fuzzText)+4, []byte{})
	f.Fuzz(func(t *testing.T, text, data []byte, entry, sym uint64, jt []byte) {
		bin := fuzzBinary(text, data, entry, sym, jt)
		p, err := cfg.Disassemble(bin)
		if err != nil {
			return
		}
		if len(text) == 0 {
			t.Fatal("empty text section accepted")
		}

		// The instructions tile the text section.
		index := make(map[uint64]int, len(p.Insts))
		next := uint64(fuzzText)
		for i, di := range p.Insts {
			if di.Addr != next {
				t.Fatalf("instruction %d at %#x, want %#x", i, di.Addr, next)
			}
			index[di.Addr] = i
			next += uint64(di.Inst.Len)
		}
		end := uint64(fuzzText) + uint64(len(text))
		if next != end {
			t.Fatalf("instructions end at %#x, text at %#x", next, end)
		}

		lead := refLeaders(p, bin)
		for a := uint64(fuzzText) - 1; a <= end+1; a++ {
			i, ok := p.InstAt(a)
			want, wantOK := index[a]
			if ok != wantOK || (ok && i != want) {
				t.Fatalf("InstAt(%#x) = %d, %v; want %d, %v", a, i, ok, want, wantOK)
			}
			if got := p.IsLeader(a); got != lead[a] {
				t.Fatalf("IsLeader(%#x) = %v, want %v", a, got, lead[a])
			}
		}
		for i, di := range p.Insts {
			if p.LeaderAt(i) != lead[di.Addr] {
				t.Fatalf("LeaderAt(%d) = %v, want %v", i, p.LeaderAt(i), lead[di.Addr])
			}
		}

		// Every memory operand is a candidate check site.
		var sites []cfg.CheckSite
		for i, di := range p.Insts {
			if in := &di.Inst; in.IsMemAccess() {
				lo := int64(in.Mem.Disp)
				sites = append(sites, cfg.CheckSite{Inst: i, Lo: lo, Hi: lo + int64(in.MemWidth())})
			}
		}
		for _, opts := range []cfg.GraphOptions{{}, {NoIndirect: true}} {
			df := cfg.NewDataflowOpts(p, opts)
			for site, w := range df.Redundant(sites) {
				if w == site || !df.Dom.Dominates(df.Graph.BlockOf[w], df.Graph.BlockOf[site]) {
					t.Fatalf("check %d eliminated by %d, which does not dominate it", site, w)
				}
			}
		}
	})
}

// fuzzSample is a bounds-checked table dispatch followed by two stores
// through one address shape, the second covered by the first.
func fuzzSample(f *testing.F) []byte {
	return encodeAll(f,
		isa.Inst{Op: isa.CMP, Form: isa.FRI, Reg: isa.RCX, Imm: 2, Size: 8},
		isa.Inst{Op: isa.JA, Form: isa.FRel8, Imm: 9},
		isa.Inst{Op: isa.JMP, Form: isa.FM, Size: 8,
			Mem: isa.Mem{Base: isa.RegNone, Index: isa.RCX, Scale: 8, Disp: int32(fuzzData)}},
		isa.Inst{Op: isa.LPAD, Form: isa.FNone},
		isa.Inst{Op: isa.MOV, Form: isa.FMR, Reg: isa.RAX, Size: 8,
			Mem: isa.Mem{Base: isa.RBX, Index: isa.RegNone, Scale: 1, Disp: 8}},
		isa.Inst{Op: isa.MOV, Form: isa.FMR, Reg: isa.RAX, Size: 8,
			Mem: isa.Mem{Base: isa.RBX, Index: isa.RegNone, Scale: 1, Disp: 16}},
		isa.Inst{Op: isa.RET, Form: isa.FNone},
	)
}

func encodeAll(f *testing.F, insts ...isa.Inst) []byte {
	var out []byte
	for i := range insts {
		var err error
		if out, err = isa.Encode(out, &insts[i]); err != nil {
			f.Fatal(err)
		}
	}
	return out
}
