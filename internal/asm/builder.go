// Package asm provides an RF64 assembler: a programmatic Builder API used
// by the workload generators and tests, plus a textual assembler (see
// text.go) for the command-line tools.
//
// The Builder produces fully linked RELF executables. It supports both
// position-dependent code (absolute addressing of globals) and PIC
// (RIP-relative addressing), mirroring the two binary flavours the paper's
// tool must handle.
package asm

import (
	"fmt"
	"math"
	"sort"

	"redfat/internal/isa"
	"redfat/internal/relf"
	"redfat/internal/vm"
)

// Options configures a Builder.
type Options struct {
	PIC      bool
	TextBase uint64 // 0 → relf.DefaultTextBase
	DataBase uint64 // 0 → relf.DefaultDataBase

	// FuncAlign pads with NOPs so each Func starts at a multiple of this
	// power of two (0 = no alignment), like a compiler's .p2align.
	FuncAlign uint64
}

// fixKind distinguishes the kinds of symbol references that need patching.
type fixKind uint8

const (
	fixNone   fixKind = iota
	fixBranch         // rel32 branch/call to a label
	fixAbs            // absolute address immediate (non-PIC)
	fixRIP            // RIP-relative displacement (PIC)
	fixMemAbs         // absolute displacement in a memory operand (non-PIC)
	fixAlign          // NOP padding to the alignment in addend
)

type item struct {
	inst   isa.Inst
	kind   fixKind
	target string
	addend int64 // added to the symbol address
	offset uint64
}

type global struct {
	name  string
	data  []byte // nil for BSS
	size  uint64
	align uint64
}

// dataFixup patches a symbol address into initialized data at build time
// (e.g. function-pointer jump tables).
type dataFixup struct {
	global string // containing global
	offset uint64 // byte offset within the global
	sym    string // symbol whose address is written (8 bytes, LE)
}

// jtRec records one declared jump table (a rodata global) so Build can
// emit the .rf.jt metadata section the indirect-flow recovery trusts.
type jtRec struct {
	name    string
	entries uint32
}

// Builder incrementally assembles a program.
type Builder struct {
	opts    Options
	items   []item
	labels  map[string]int // label name → item index it precedes
	funcs   []relf.Symbol  // accumulated function symbols (sizes fixed later)
	globals []global
	rodata  []global
	bss     []global
	jts     []jtRec
	fixups  []dataFixup
	imports []string
	entry   string
	err     error
}

// NewBuilder returns an empty Builder.
func NewBuilder(opts Options) *Builder {
	if opts.TextBase == 0 {
		opts.TextBase = relf.DefaultTextBase
	}
	if opts.DataBase == 0 {
		opts.DataBase = relf.DefaultDataBase
	}
	return &Builder{opts: opts, labels: make(map[string]int)}
}

// Err returns the first error recorded during building.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...any) {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
}

// Label defines a code label at the current position.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.fail("asm: duplicate label %q", name)
		return
	}
	b.labels[name] = len(b.items)
}

// Func starts a new function: it defines a label and records a function
// symbol. The first Func (or an explicit SetEntry) becomes the entry point.
func (b *Builder) Func(name string) {
	if a := b.opts.FuncAlign; a > 1 && len(b.items) > 0 {
		// NOP padding; exact count is resolved in pass 1 via alignment
		// items (each NOP is 1 byte, so emit a marker resolved later).
		b.items = append(b.items, item{kind: fixAlign, addend: int64(a)})
	}
	b.Label(name)
	b.funcs = append(b.funcs, relf.Symbol{Name: name, Func: true})
	if b.entry == "" {
		b.entry = name
	}
}

// SetEntry selects the entry-point label.
func (b *Builder) SetEntry(name string) { b.entry = name }

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) {
	b.items = append(b.items, item{inst: in})
}

func (b *Builder) emitFix(in isa.Inst, kind fixKind, target string, addend int64) {
	b.items = append(b.items, item{inst: in, kind: kind, target: target, addend: addend})
}

// ImportIndex interns an import name.
func (b *Builder) ImportIndex(name string) int {
	for i, n := range b.imports {
		if n == name {
			return i
		}
	}
	b.imports = append(b.imports, name)
	return len(b.imports) - 1
}

// --- data definitions ---

// Global defines an initialized data object.
func (b *Builder) Global(name string, data []byte) {
	b.globals = append(b.globals, global{name: name, data: data,
		size: uint64(len(data)), align: 8})
}

// GlobalU64 defines an initialized array of 64-bit values.
func (b *Builder) GlobalU64(name string, vals ...uint64) {
	data := make([]byte, 8*len(vals))
	for i, v := range vals {
		for j := 0; j < 8; j++ {
			data[8*i+j] = byte(v >> (8 * j))
		}
	}
	b.Global(name, data)
}

// FuncTable defines an initialized global holding the addresses of the
// given symbols (a jump table), resolved at build time. The table lives in
// writable .data and is NOT declared in .rf.jt, so the indirect-flow
// recovery must leave jumps through it Unknown; use JumpTable for a
// recoverable one.
func (b *Builder) FuncTable(name string, syms ...string) {
	b.Global(name, make([]byte, 8*len(syms)))
	for i, s := range syms {
		b.fixups = append(b.fixups, dataFixup{global: name, offset: uint64(8 * i), sym: s})
	}
}

// ROData defines an initialized object in the read-only data section.
func (b *Builder) ROData(name string, data []byte) {
	b.rodata = append(b.rodata, global{name: name, data: data,
		size: uint64(len(data)), align: 8})
}

// JumpTable defines a word-aligned jump table in .rodata holding the
// addresses of the given symbols, and declares it in the .rf.jt metadata
// section with a relocation record per entry. Declaring any jump table
// (or emitting any LPAD) marks the binary as marker-built: the VM then
// enforces that indirect branches land on LPAD instructions, and the
// indirect-flow recovery in internal/cfg may resolve jumps through the
// table to its entries.
func (b *Builder) JumpTable(name string, syms ...string) {
	b.ROData(name, make([]byte, 8*len(syms)))
	for i, s := range syms {
		b.fixups = append(b.fixups, dataFixup{global: name, offset: uint64(8 * i), sym: s})
	}
	b.jts = append(b.jts, jtRec{name: name, entries: uint32(len(syms))})
}

// Zero defines a zero-initialized (BSS) object.
func (b *Builder) Zero(name string, size uint64) {
	b.bss = append(b.bss, global{name: name, size: size, align: 16})
}

// --- instruction helpers ---

// mem8 builds a memory operand with the default 1 scale.
func memOp(base isa.Reg, disp int32) isa.Mem {
	return isa.Mem{Base: base, Index: isa.RegNone, Scale: 1, Disp: disp}
}

// MemBID builds a base+index*scale+disp memory operand.
func MemBID(base, index isa.Reg, scale uint8, disp int32) isa.Mem {
	return isa.Mem{Base: base, Index: index, Scale: scale, Disp: disp}
}

// MovRR emits mov src → dst.
func (b *Builder) MovRR(dst, src isa.Reg) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FRR, Reg: dst, Reg2: src, Size: 8})
}

// MovRI emits mov $imm → dst (using movabs if needed).
func (b *Builder) MovRI(dst isa.Reg, imm int64) {
	if imm >= -(1<<31) && imm < 1<<31 {
		b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FRI, Reg: dst, Imm: imm, Size: 8})
		return
	}
	b.Emit(isa.Inst{Op: isa.MOVABS, Form: isa.FRI, Reg: dst, Imm: imm, Size: 8})
}

// Load emits a load of width size from [base+disp] into dst.
func (b *Builder) Load(dst isa.Reg, base isa.Reg, disp int32, size uint8) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FRM, Reg: dst, Mem: memOp(base, disp), Size: size})
}

// LoadM emits a load through an arbitrary memory operand.
func (b *Builder) LoadM(dst isa.Reg, m isa.Mem, size uint8) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FRM, Reg: dst, Mem: m, Size: size})
}

// Store emits a store of width size of src into [base+disp].
func (b *Builder) Store(base isa.Reg, disp int32, src isa.Reg, size uint8) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FMR, Reg: src, Mem: memOp(base, disp), Size: size})
}

// StoreM emits a store through an arbitrary memory operand.
func (b *Builder) StoreM(m isa.Mem, src isa.Reg, size uint8) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FMR, Reg: src, Mem: m, Size: size})
}

// StoreI emits a store of an immediate into [base+disp].
func (b *Builder) StoreI(base isa.Reg, disp int32, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FMI, Mem: memOp(base, disp), Imm: imm, Size: size})
}

// StoreMI emits an immediate store through an arbitrary memory operand.
func (b *Builder) StoreMI(m isa.Mem, imm int64, size uint8) {
	b.Emit(isa.Inst{Op: isa.MOV, Form: isa.FMI, Mem: m, Imm: imm, Size: size})
}

// ALU helpers (register forms).

// AluRR emits op src → dst (e.g. add %src, %dst).
func (b *Builder) AluRR(op isa.Op, dst, src isa.Reg) {
	b.Emit(isa.Inst{Op: op, Form: isa.FRR, Reg: dst, Reg2: src, Size: 8})
}

// AluRI emits op $imm → dst.
func (b *Builder) AluRI(op isa.Op, dst isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Form: isa.FRI, Reg: dst, Imm: imm, Size: 8})
}

// AluRM emits op mem → dst.
func (b *Builder) AluRM(op isa.Op, dst isa.Reg, m isa.Mem, size uint8) {
	b.Emit(isa.Inst{Op: op, Form: isa.FRM, Reg: dst, Mem: m, Size: size})
}

// AluMR emits op src → mem.
func (b *Builder) AluMR(op isa.Op, m isa.Mem, src isa.Reg, size uint8) {
	b.Emit(isa.Inst{Op: op, Form: isa.FMR, Reg: src, Mem: m, Size: size})
}

// Push/Pop registers.

// Push emits push reg.
func (b *Builder) Push(r isa.Reg) { b.Emit(isa.Inst{Op: isa.PUSH, Form: isa.FR, Reg: r, Size: 8}) }

// Pop emits pop reg.
func (b *Builder) Pop(r isa.Reg) { b.Emit(isa.Inst{Op: isa.POP, Form: isa.FR, Reg: r, Size: 8}) }

// Ret emits ret.
func (b *Builder) Ret() { b.Emit(isa.Inst{Op: isa.RET, Form: isa.FNone}) }

// Nop emits nop.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP, Form: isa.FNone}) }

// Lpad emits a landing-pad marker (a legal indirect-branch target).
func (b *Builder) Lpad() { b.Emit(isa.Inst{Op: isa.LPAD, Form: isa.FNone}) }

// Shift emits a shift by immediate.
func (b *Builder) Shift(op isa.Op, r isa.Reg, count int64) {
	b.Emit(isa.Inst{Op: op, Form: isa.FRI, Reg: r, Imm: count, Size: 8})
}

// Jmp emits an unconditional jump to a label.
func (b *Builder) Jmp(label string) {
	b.emitFix(isa.Inst{Op: isa.JMP, Form: isa.FRel32}, fixBranch, label, 0)
}

// Jcc emits a conditional jump to a label.
func (b *Builder) Jcc(cond isa.Op, label string) {
	if !cond.IsCondJump() {
		b.fail("asm: %v is not a conditional jump", cond)
		return
	}
	b.emitFix(isa.Inst{Op: cond, Form: isa.FRel32}, fixBranch, label, 0)
}

// Call emits a call to a local label.
func (b *Builder) Call(label string) {
	b.emitFix(isa.Inst{Op: isa.CALL, Form: isa.FRel32}, fixBranch, label, 0)
}

// CallImport emits a call to an imported function (models a PLT call).
func (b *Builder) CallImport(name string) {
	idx := b.ImportIndex(name)
	b.Emit(isa.Inst{Op: isa.RTCALL, Form: isa.FI, Imm: vm.RTCallImm(idx, 0)})
}

// LoadAddr materializes the address of a global symbol (plus addend) into
// dst, using the addressing mode appropriate for the binary flavour:
// absolute immediate for position-dependent code, RIP-relative LEA for PIC.
func (b *Builder) LoadAddr(dst isa.Reg, sym string, addend int64) {
	if b.opts.PIC {
		b.emitFix(isa.Inst{Op: isa.LEA, Form: isa.FRM, Reg: dst, Size: 8,
			Mem: isa.Mem{Base: isa.RIP, Index: isa.RegNone, Scale: 1}},
			fixRIP, sym, addend)
		return
	}
	b.emitFix(isa.Inst{Op: isa.MOV, Form: isa.FRI, Reg: dst, Size: 8},
		fixAbs, sym, addend)
}

// LoadGlobal emits a load from a global symbol using an absolute memory
// operand (non-PIC) or RIP-relative operand (PIC).
func (b *Builder) LoadGlobal(dst isa.Reg, sym string, addend int64, size uint8) {
	m := isa.Mem{Base: isa.RegNone, Index: isa.RegNone, Scale: 1}
	if b.opts.PIC {
		m.Base = isa.RIP
	}
	b.emitFix(isa.Inst{Op: isa.MOV, Form: isa.FRM, Reg: dst, Mem: m, Size: size},
		fixAbsOrRIP(b.opts.PIC), sym, addend)
}

// StoreGlobal emits a store to a global symbol.
func (b *Builder) StoreGlobal(sym string, addend int64, src isa.Reg, size uint8) {
	m := isa.Mem{Base: isa.RegNone, Index: isa.RegNone, Scale: 1}
	if b.opts.PIC {
		m.Base = isa.RIP
	}
	b.emitFix(isa.Inst{Op: isa.MOV, Form: isa.FMR, Reg: src, Mem: m, Size: size},
		fixAbsOrRIP(b.opts.PIC), sym, addend)
}

// LoadIndexed emits `mov sym(,idx,scale), dst` — the jump-table load
// pattern the indirect-flow recovery slicer recognises. Position-dependent
// code only: PIC tables would hold offsets, which recovery does not model.
func (b *Builder) LoadIndexed(dst isa.Reg, sym string, idx isa.Reg, scale uint8, size uint8) {
	if b.opts.PIC {
		b.fail("asm: LoadIndexed requires position-dependent code")
		return
	}
	b.emitFix(isa.Inst{Op: isa.MOV, Form: isa.FRM, Reg: dst,
		Mem: isa.Mem{Base: isa.RegNone, Index: idx, Scale: scale}, Size: size},
		fixMemAbs, sym, 0)
}

// JmpReg emits an indirect jump through a register.
func (b *Builder) JmpReg(r isa.Reg) {
	b.Emit(isa.Inst{Op: isa.JMP, Form: isa.FR, Reg: r, Size: 8})
}

// JmpIndexed emits `jmp *sym(,idx,8)` — the memory-form table dispatch.
func (b *Builder) JmpIndexed(sym string, idx isa.Reg) {
	if b.opts.PIC {
		b.fail("asm: JmpIndexed requires position-dependent code")
		return
	}
	b.emitFix(isa.Inst{Op: isa.JMP, Form: isa.FM,
		Mem: isa.Mem{Base: isa.RegNone, Index: idx, Scale: 8}, Size: 8},
		fixMemAbs, sym, 0)
}

func fixAbsOrRIP(pic bool) fixKind {
	if pic {
		return fixRIP
	}
	return fixMemAbs
}

// --- assembly ---

// Build assembles the program into a RELF binary.
func (b *Builder) Build() (*relf.Binary, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.entry == "" {
		return nil, fmt.Errorf("asm: no entry point (no Func defined)")
	}

	// Lay out data sections first so symbol addresses are known.
	dataAddr := b.opts.DataBase
	symAddr := make(map[string]uint64)
	var dataBytes []byte
	dataStart := dataAddr
	for _, g := range b.globals {
		if g.align > 1 {
			pad := (g.align - (dataAddr % g.align)) % g.align
			dataAddr += pad
			dataBytes = append(dataBytes, make([]byte, pad)...)
		}
		if _, dup := symAddr[g.name]; dup {
			return nil, fmt.Errorf("asm: duplicate global %q", g.name)
		}
		symAddr[g.name] = dataAddr
		dataBytes = append(dataBytes, g.data...)
		dataAddr += g.size
	}
	// Read-only data follows .data on its own pages, so the page-granular
	// memory protections keep it genuinely unwritable at run time (the
	// property the jump-table recovery relies on).
	roStart := (dataAddr + 0xFFF) &^ 0xFFF
	roAddr := roStart
	var roBytes []byte
	for _, g := range b.rodata {
		if g.align > 1 {
			pad := (g.align - (roAddr % g.align)) % g.align
			roAddr += pad
			roBytes = append(roBytes, make([]byte, pad)...)
		}
		if _, dup := symAddr[g.name]; dup {
			return nil, fmt.Errorf("asm: duplicate global %q", g.name)
		}
		symAddr[g.name] = roAddr
		roBytes = append(roBytes, g.data...)
		roAddr += g.size
	}
	bssStart := (roAddr + 0xFFF) &^ 0xFFF
	bssAddr := bssStart
	for _, g := range b.bss {
		start := bssAddr
		if g.align > 1 {
			start = (bssAddr + g.align - 1) &^ (g.align - 1)
		}
		if start < bssAddr || g.size > math.MaxUint64-start {
			return nil, fmt.Errorf("asm: .bss object %q of %#x bytes overflows the address space", g.name, g.size)
		}
		if _, dup := symAddr[g.name]; dup {
			return nil, fmt.Errorf("asm: duplicate global %q", g.name)
		}
		symAddr[g.name] = start
		bssAddr = start + g.size
	}

	// Pass 1: compute instruction offsets. Label-fixup instructions are
	// encoded with a placeholder to get their length.
	offsets := make([]uint64, len(b.items)+1)
	var off uint64
	var scratch []byte
	for i := range b.items {
		offsets[i] = off
		it := &b.items[i]
		in := it.inst
		if it.kind == fixAlign {
			a := uint64(it.addend)
			pad := (a - (b.opts.TextBase+off)%a) % a
			it.offset = off
			off += pad
			continue
		}
		switch it.kind {
		case fixBranch, fixRIP:
			in.Imm = 0
			if it.kind == fixRIP {
				in.Mem.Disp = 0x7FFFFFF // force disp32 (RIP form always is)
			}
		case fixAbs:
			in.Imm = 0x7FFFFFF
		case fixMemAbs:
			in.Mem.Disp = 0x7FFFFFF
		}
		var err error
		scratch, err = isa.Encode(scratch[:0], &in)
		if err != nil {
			return nil, fmt.Errorf("asm: item %d (%s): %w", i, it.inst.String(), err)
		}
		it.offset = off
		off += uint64(len(scratch))
	}
	offsets[len(b.items)] = off

	textBase := b.opts.TextBase
	labelAddr := func(name string) (uint64, bool) {
		if idx, ok := b.labels[name]; ok {
			return textBase + offsets[idx], true
		}
		if a, ok := symAddr[name]; ok {
			return a, true
		}
		return 0, false
	}

	// Pass 2: encode with resolved addresses.
	text := make([]byte, 0, off)
	for i := range b.items {
		it := &b.items[i]
		in := it.inst
		nextAddr := textBase + offsets[i+1]
		if it.kind == fixAlign {
			for uint64(len(text)) < offsets[i+1] {
				text = append(text, byte(isa.NOP))
			}
			continue
		}
		if it.kind != fixNone {
			target, ok := labelAddr(it.target)
			if !ok {
				return nil, fmt.Errorf("asm: undefined symbol %q", it.target)
			}
			target = uint64(int64(target) + it.addend)
			switch it.kind {
			case fixBranch:
				in.Imm = int64(target) - int64(nextAddr)
			case fixAbs:
				in.Imm = int64(target)
			case fixRIP:
				in.Mem.Disp = int32(int64(target) - int64(nextAddr))
			case fixMemAbs:
				if int64(target) != int64(int32(target)) {
					return nil, fmt.Errorf("asm: symbol %q out of disp32 range", it.target)
				}
				in.Mem.Disp = int32(target)
			}
		}
		var err error
		text, err = isa.Encode(text, &in)
		if err != nil {
			return nil, fmt.Errorf("asm: encoding %s: %w", in.String(), err)
		}
		if uint64(len(text)) != offsets[i+1] {
			return nil, fmt.Errorf("asm: phase error at item %d (%s): %d != %d",
				i, in.String(), len(text), offsets[i+1])
		}
	}

	// Apply data fixups (jump tables), in .data or .rodata.
	for _, f := range b.fixups {
		gaddr, ok := symAddr[f.global]
		if !ok {
			return nil, fmt.Errorf("asm: fixup in undefined global %q", f.global)
		}
		target, ok := labelAddr(f.sym)
		if !ok {
			return nil, fmt.Errorf("asm: fixup to undefined symbol %q", f.sym)
		}
		bytes, start := dataBytes, dataStart
		if gaddr >= roStart && len(roBytes) > 0 {
			bytes, start = roBytes, roStart
		}
		off := gaddr - start + f.offset
		if off+8 > uint64(len(bytes)) {
			return nil, fmt.Errorf("asm: fixup outside global %q", f.global)
		}
		for j := 0; j < 8; j++ {
			bytes[off+uint64(j)] = byte(target >> (8 * j))
		}
	}

	entry, ok := b.labels[b.entry]
	if !ok {
		return nil, fmt.Errorf("asm: entry label %q undefined", b.entry)
	}

	bin := &relf.Binary{
		PIC:     b.opts.PIC,
		Entry:   textBase + offsets[entry],
		Imports: append([]string(nil), b.imports...),
	}
	bin.AddSection(&relf.Section{
		Name: ".text", Kind: relf.SecText, Addr: textBase,
		Size: uint64(len(text)), Data: text, Exec: true,
	})
	if len(dataBytes) > 0 {
		bin.AddSection(&relf.Section{
			Name: ".data", Kind: relf.SecData, Addr: dataStart,
			Size: uint64(len(dataBytes)), Data: dataBytes, Write: true,
		})
	}
	if len(roBytes) > 0 {
		bin.AddSection(&relf.Section{
			Name: ".rodata", Kind: relf.SecROData, Addr: roStart,
			Size: uint64(len(roBytes)), Data: roBytes,
		})
	}
	marker := len(b.jts) > 0
	for i := range b.items {
		if b.items[i].inst.Op == isa.LPAD {
			marker = true
			break
		}
	}
	if marker {
		tables := make([]relf.JumpTable, len(b.jts))
		for i, t := range b.jts {
			tables[i] = relf.JumpTable{Addr: symAddr[t.name], Entries: t.entries}
		}
		bin.AddSection(&relf.Section{
			Name: relf.JumpTableSection, Kind: relf.SecMeta,
			Data: relf.EncodeJumpTables(tables),
		})
	}
	if bssAddr > bssStart {
		bin.AddSection(&relf.Section{
			Name: ".bss", Kind: relf.SecBSS, Addr: bssStart,
			Size: bssAddr - bssStart, Write: true,
		})
	}

	// Symbols: function sizes run to the next function start (or text end).
	funcSyms := make([]relf.Symbol, len(b.funcs))
	for i, f := range b.funcs {
		f.Addr = textBase + offsets[b.labels[f.Name]]
		funcSyms[i] = f
	}
	sort.Slice(funcSyms, func(i, j int) bool { return funcSyms[i].Addr < funcSyms[j].Addr })
	for i := range funcSyms {
		end := textBase + off
		if i+1 < len(funcSyms) {
			end = funcSyms[i+1].Addr
		}
		funcSyms[i].Size = end - funcSyms[i].Addr
	}
	bin.Symbols = append(bin.Symbols, funcSyms...)
	for _, g := range b.globals {
		bin.Symbols = append(bin.Symbols,
			relf.Symbol{Name: g.name, Addr: symAddr[g.name], Size: g.size})
	}
	for _, g := range b.rodata {
		bin.Symbols = append(bin.Symbols,
			relf.Symbol{Name: g.name, Addr: symAddr[g.name], Size: g.size})
	}
	for _, g := range b.bss {
		bin.Symbols = append(bin.Symbols,
			relf.Symbol{Name: g.name, Addr: symAddr[g.name], Size: g.size})
	}

	if err := bin.CheckOverlaps(); err != nil {
		return nil, err
	}
	return bin, nil
}
