package asm

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"redfat/internal/isa"
	"redfat/internal/relf"
)

// Assemble parses AT&T-flavoured RF64 assembly text and produces a RELF
// binary. Supported syntax:
//
//	.text / .data                section switch
//	.func name                   begin a function (first = entry)
//	.entry name                  select the entry point
//	.pic                         build position-independent code
//	label:                       code or data label
//	.quad v, v, ...              64-bit data values
//	.byte v, v, ...              byte data
//	.ascii "str" / .asciz "str"  string data
//	.zero n                      BSS object (in .data)
//	.jumptable name, l1, l2...   word-aligned read-only jump table of code
//	                             labels, declared in .rf.jt (see internal/cfg)
//
// Instructions use AT&T operand order (src, dst), "$imm" immediates,
// "%reg" registers, "disp(base,index,scale)" memory operands with
// optional %fs:/%gs: segment prefixes, "@name" import calls, "*%reg" and
// "*mem" indirect branches, and b/w/l/q size suffixes on mnemonics.
// "$sym" (a known label) materializes the symbol address.
func Assemble(src string) (*relf.Binary, error) {
	p := &parser{b: NewBuilder(Options{})}
	// First pass over directives to detect .pic (affects the builder).
	if strings.Contains(src, ".pic") {
		p.b = NewBuilder(Options{PIC: true})
	}
	for i, line := range strings.Split(src, "\n") {
		p.line = i + 1
		if err := p.parseLine(line); err != nil {
			return nil, fmt.Errorf("line %d: %w", p.line, err)
		}
	}
	if err := p.flushData(); err != nil {
		return nil, err
	}
	return p.b.Build()
}

type parser struct {
	b       *Builder
	line    int
	inData  bool
	dataLbl string
	dataBuf []byte
	dataBSS uint64
}

func (p *parser) flushData() error {
	if p.dataLbl == "" {
		return nil
	}
	if p.dataBSS > 0 {
		if len(p.dataBuf) > 0 {
			return fmt.Errorf("label %q mixes data and .zero", p.dataLbl)
		}
		p.b.Zero(p.dataLbl, p.dataBSS)
	} else {
		p.b.Global(p.dataLbl, p.dataBuf)
	}
	p.dataLbl, p.dataBuf, p.dataBSS = "", nil, 0
	return nil
}

func (p *parser) parseLine(line string) error {
	// Strip comments.
	if i := strings.IndexAny(line, "#;"); i >= 0 {
		// ';' inside a string literal would break; keep literals first.
		if !strings.Contains(line[:i], `"`) {
			line = line[:i]
		}
	}
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}

	// Labels.
	if i := strings.Index(line, ":"); i >= 0 && !strings.ContainsAny(line[:i], " \t$%(") {
		name := line[:i]
		rest := strings.TrimSpace(line[i+1:])
		if p.inData {
			if err := p.flushData(); err != nil {
				return err
			}
			p.dataLbl = name
		} else {
			p.b.Label(name)
		}
		if rest == "" {
			return nil
		}
		line = rest
	}

	// Directives.
	if strings.HasPrefix(line, ".") {
		return p.directive(line)
	}
	if p.inData {
		return fmt.Errorf("instruction %q in .data section", line)
	}
	return p.instruction(line)
}

func (p *parser) directive(line string) error {
	fields := strings.SplitN(line, " ", 2)
	dir := fields[0]
	arg := ""
	if len(fields) == 2 {
		arg = strings.TrimSpace(fields[1])
	}
	switch dir {
	case ".text":
		return p.flushData2(false)
	case ".data":
		return p.flushData2(true)
	case ".pic":
		return nil // handled up front
	case ".func":
		if p.inData {
			return fmt.Errorf(".func in .data")
		}
		p.b.Func(arg)
		return nil
	case ".entry":
		p.b.SetEntry(arg)
		return nil
	case ".quad":
		for _, v := range splitArgs(arg) {
			n, err := parseInt(v)
			if err != nil {
				return err
			}
			var buf [8]byte
			for j := 0; j < 8; j++ {
				buf[j] = byte(uint64(n) >> (8 * j))
			}
			p.dataBuf = append(p.dataBuf, buf[:]...)
		}
		return nil
	case ".byte":
		for _, v := range splitArgs(arg) {
			n, err := parseInt(v)
			if err != nil {
				return err
			}
			p.dataBuf = append(p.dataBuf, byte(n))
		}
		return nil
	case ".ascii", ".asciz":
		s, err := strconv.Unquote(arg)
		if err != nil {
			return fmt.Errorf("bad string %s", arg)
		}
		p.dataBuf = append(p.dataBuf, s...)
		if dir == ".asciz" {
			p.dataBuf = append(p.dataBuf, 0)
		}
		return nil
	case ".jumptable":
		if err := p.flushData(); err != nil {
			return err
		}
		args := splitArgs(arg)
		if len(args) < 2 {
			return fmt.Errorf(".jumptable needs a name and at least one target label")
		}
		p.b.JumpTable(args[0], args[1:]...)
		return nil
	case ".zero":
		n, err := parseInt(arg)
		if err != nil {
			return err
		}
		if n < 0 || uint64(n) > math.MaxUint64-p.dataBSS {
			return fmt.Errorf(".zero size %s out of range", arg)
		}
		p.dataBSS += uint64(n)
		return nil
	}
	return fmt.Errorf("unknown directive %s", dir)
}

func (p *parser) flushData2(toData bool) error {
	if err := p.flushData(); err != nil {
		return err
	}
	p.inData = toData
	return nil
}

func splitArgs(s string) []string {
	var out []string
	depth := 0
	start := 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	if t := strings.TrimSpace(s[start:]); t != "" {
		out = append(out, t)
	}
	return out
}

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	v, err := strconv.ParseUint(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad integer %q", s)
	}
	n := int64(v)
	if neg {
		n = -n
	}
	return n, nil
}

// operand is a parsed AT&T operand.
type operand struct {
	kind byte // 'i' imm, 'r' reg, 'm' mem, 's' symbol-imm, 'l' label, '@' import, '*' indirect
	imm  int64
	reg  isa.Reg
	mem  isa.Mem
	sym  string
	ind  *operand // for '*'
}

func (p *parser) parseOperand(s string) (operand, error) {
	s = strings.TrimSpace(s)
	switch {
	case s == "":
		return operand{}, fmt.Errorf("empty operand")
	case s[0] == '$':
		body := s[1:]
		if n, err := parseInt(body); err == nil {
			return operand{kind: 'i', imm: n}, nil
		}
		return operand{kind: 's', sym: body}, nil
	case s[0] == '%':
		r, ok := isa.RegFromName(s)
		if !ok {
			// Could be a segment-prefixed memory operand (%fs:...).
			if strings.HasPrefix(s, "%fs:") || strings.HasPrefix(s, "%gs:") {
				return p.parseMem(s)
			}
			return operand{}, fmt.Errorf("bad register %q", s)
		}
		return operand{kind: 'r', reg: r}, nil
	case s[0] == '*':
		inner, err := p.parseOperand(s[1:])
		if err != nil {
			return operand{}, err
		}
		return operand{kind: '*', ind: &inner}, nil
	case s[0] == '@':
		return operand{kind: '@', sym: s[1:]}, nil
	case strings.ContainsAny(s, "(") || isNumeric(s):
		return p.parseMem(s)
	default:
		return operand{kind: 'l', sym: s}, nil
	}
}

func isNumeric(s string) bool {
	if s == "" {
		return false
	}
	if s[0] == '-' {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	return s[0] >= '0' && s[0] <= '9'
}

// parseMem parses seg:disp(base,index,scale).
func (p *parser) parseMem(s string) (operand, error) {
	m := isa.Mem{Base: isa.RegNone, Index: isa.RegNone, Scale: 1}
	if strings.HasPrefix(s, "%fs:") {
		m.Seg = isa.SegFS
		s = s[4:]
	} else if strings.HasPrefix(s, "%gs:") {
		m.Seg = isa.SegGS
		s = s[4:]
	}
	dispStr := s
	var inner string
	if i := strings.Index(s, "("); i >= 0 {
		if !strings.HasSuffix(s, ")") {
			return operand{}, fmt.Errorf("unclosed memory operand %q", s)
		}
		dispStr = s[:i]
		inner = s[i+1 : len(s)-1]
	}
	var symDisp string
	if dispStr != "" {
		if n, err := parseInt(dispStr); err == nil {
			if n != int64(int32(n)) {
				return operand{}, fmt.Errorf("displacement %s out of disp32 range", dispStr)
			}
			m.Disp = int32(n)
		} else {
			symDisp = dispStr // symbolic displacement
		}
	}
	if inner != "" {
		parts := strings.Split(inner, ",")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		if parts[0] != "" {
			r, ok := isa.RegFromName(parts[0])
			if !ok {
				return operand{}, fmt.Errorf("bad base register %q", parts[0])
			}
			m.Base = r
		}
		if len(parts) >= 2 && parts[1] != "" {
			r, ok := isa.RegFromName(parts[1])
			if !ok {
				return operand{}, fmt.Errorf("bad index register %q", parts[1])
			}
			m.Index = r
		}
		if len(parts) >= 3 && parts[2] != "" {
			n, err := parseInt(parts[2])
			if err != nil {
				return operand{}, err
			}
			if n != 1 && n != 2 && n != 4 && n != 8 {
				return operand{}, fmt.Errorf("bad scale %s (want 1, 2, 4 or 8)", parts[2])
			}
			m.Scale = uint8(n)
		}
	}
	if symDisp != "" && (m.HasBase() || m.HasIndex()) {
		// The symbol forms (LoadGlobal, StoreGlobal) address the symbol
		// alone; keeping the registers needs an encoding they lack.
		return operand{}, fmt.Errorf("symbolic displacement with a base or index register not supported: %q", s)
	}
	op := operand{kind: 'm', mem: m, sym: symDisp}
	return op, nil
}

// sizeFromSuffix splits a mnemonic into base op name and operand size.
// A mnemonic that is itself a valid op (e.g. "sub", "shl", "jb") is never
// treated as suffixed; otherwise a trailing b/w/l/q selects the width.
func sizeFromSuffix(mnem string) (string, uint8) {
	if _, ok := isa.OpFromName(mnem); ok {
		return mnem, 8
	}
	if len(mnem) < 3 {
		return mnem, 8
	}
	base := mnem[:len(mnem)-1]
	if _, ok := isa.OpFromName(base); !ok {
		return mnem, 8
	}
	switch mnem[len(mnem)-1] {
	case 'b':
		return base, 1
	case 'w':
		return base, 2
	case 'l':
		return base, 4
	case 'q':
		return base, 8
	}
	return mnem, 8
}

func (p *parser) instruction(line string) error {
	fields := strings.SplitN(line, " ", 2)
	mnem := strings.ToLower(fields[0])
	var args []string
	if len(fields) == 2 {
		args = splitArgs(fields[1])
	}
	name, size := sizeFromSuffix(mnem)

	// Zero-operand forms.
	if len(args) == 0 {
		op, ok := isa.OpFromName(name)
		if !ok {
			return fmt.Errorf("unknown mnemonic %q", mnem)
		}
		p.b.Emit(isa.Inst{Op: op, Form: isa.FNone})
		return nil
	}

	ops := make([]operand, len(args))
	for i, a := range args {
		o, err := p.parseOperand(a)
		if err != nil {
			return err
		}
		ops[i] = o
	}

	// Branches and calls.
	switch name {
	case "jmp", "call", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jbe",
		"ja", "jae", "js", "jns", "jo", "jno":
		op, _ := isa.OpFromName(name)
		o := ops[0]
		switch o.kind {
		case 'l':
			switch {
			case op == isa.JMP:
				p.b.Jmp(o.sym)
			case op == isa.CALL:
				p.b.Call(o.sym)
			default:
				p.b.Jcc(op, o.sym)
			}
			return nil
		case '@':
			if op != isa.CALL {
				return fmt.Errorf("imports can only be called")
			}
			p.b.CallImport(o.sym)
			return nil
		case '*':
			t := *o.ind
			switch t.kind {
			case 'r':
				p.b.Emit(isa.Inst{Op: op, Form: isa.FR, Reg: t.reg, Size: 8})
			case 'm':
				if t.sym != "" {
					return fmt.Errorf("symbolic indirect target not supported")
				}
				p.b.Emit(isa.Inst{Op: op, Form: isa.FM, Mem: t.mem, Size: 8})
			default:
				return fmt.Errorf("bad indirect target")
			}
			return nil
		}
		return fmt.Errorf("bad branch target %q", args[0])
	}

	op, ok := isa.OpFromName(name)
	if !ok {
		return fmt.Errorf("unknown mnemonic %q", mnem)
	}

	// One-operand forms.
	if len(ops) == 1 {
		o := ops[0]
		switch o.kind {
		case 'r':
			p.b.Emit(isa.Inst{Op: op, Form: isa.FR, Reg: o.reg, Size: 8})
			return nil
		case 'm':
			if o.sym != "" {
				return fmt.Errorf("symbolic memory operand not supported here")
			}
			p.b.Emit(isa.Inst{Op: op, Form: isa.FM, Mem: o.mem, Size: size})
			return nil
		}
		return fmt.Errorf("bad operand for %s", mnem)
	}
	if len(ops) != 2 {
		return fmt.Errorf("%s takes at most two operands", mnem)
	}

	// Two operands: AT&T order src, dst.
	src, dst := ops[0], ops[1]
	switch {
	case src.kind == 'i' && dst.kind == 'r':
		if op == isa.MOV && (src.imm < -(1<<31) || src.imm >= 1<<31) {
			op = isa.MOVABS
		}
		p.b.Emit(isa.Inst{Op: op, Form: isa.FRI, Reg: dst.reg, Imm: src.imm, Size: 8})
	case src.kind == 's' && dst.kind == 'r':
		if op != isa.MOV {
			return fmt.Errorf("symbol immediates only with mov")
		}
		p.b.LoadAddr(dst.reg, src.sym, 0)
	case src.kind == 'l' && dst.kind == 'r':
		// Bare symbol as source: load from the global.
		if op != isa.MOV {
			return fmt.Errorf("symbolic loads only with mov")
		}
		p.b.LoadGlobal(dst.reg, src.sym, 0, size)
	case src.kind == 'r' && dst.kind == 'l':
		if op != isa.MOV {
			return fmt.Errorf("symbolic stores only with mov")
		}
		p.b.StoreGlobal(dst.sym, 0, src.reg, size)
	case src.kind == 'i' && dst.kind == 'm':
		if dst.sym != "" {
			return fmt.Errorf("symbolic store destinations not supported")
		}
		p.b.Emit(isa.Inst{Op: op, Form: isa.FMI, Mem: dst.mem, Imm: src.imm, Size: size})
	case src.kind == 'r' && dst.kind == 'r':
		p.b.Emit(isa.Inst{Op: op, Form: isa.FRR, Reg: dst.reg, Reg2: src.reg, Size: 8})
	case src.kind == 'm' && dst.kind == 'r':
		if src.sym != "" {
			if op == isa.MOV {
				p.b.LoadGlobal(dst.reg, src.sym, int64(src.mem.Disp), size)
				return nil
			}
			return fmt.Errorf("symbolic loads only with mov")
		}
		p.b.Emit(isa.Inst{Op: op, Form: isa.FRM, Reg: dst.reg, Mem: src.mem, Size: size})
	case src.kind == 'r' && dst.kind == 'm':
		if dst.sym != "" {
			if op == isa.MOV {
				p.b.StoreGlobal(dst.sym, int64(dst.mem.Disp), src.reg, size)
				return nil
			}
			return fmt.Errorf("symbolic stores only with mov")
		}
		p.b.Emit(isa.Inst{Op: op, Form: isa.FMR, Reg: src.reg, Mem: dst.mem, Size: size})
	default:
		return fmt.Errorf("unsupported operand combination for %s", mnem)
	}
	return nil
}
