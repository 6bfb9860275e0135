// Package relf implements the RELF binary container — a simplified ELF-like
// executable format for RF64 code.
//
// A RELF image is what RedFat-Go instruments: it models the properties of
// real-world Linux ELF binaries that matter to the paper's techniques:
//
//   - position-dependent executables (absolute addressing, fixed load
//     address) and position-independent ones (RIP-relative addressing,
//     rebased at load time) — RedFat must be agnostic to both (paper §1, §3);
//   - optionally stripped: symbol information may be entirely absent, and
//     nothing in the toolchain may rely on it;
//   - an import table naming external functions (libc and friends); the VM
//     binds imports at load time, which models both the PLT and the
//     LD_PRELOAD allocator-interposition trick (paper §2.1);
//   - multiple sections (text/data/rodata/bss), to which the rewriter adds
//     trampoline and metadata sections.
package relf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sort"
)

// Magic identifies a serialized RELF image.
var Magic = [4]byte{'R', 'E', 'L', 'F'}

// Version is the current format version.
const Version = 1

// Default load addresses for position-dependent executables. These mirror
// the classic x86-64 Linux layout: text at 4 MB, data above it, both far
// (≫2 GB) below the low-fat heap regions that start at 32 GB, and the stack
// near the top of the canonical user address space. The distances are what
// the check-elimination optimization relies on (paper §6).
const (
	DefaultTextBase  = 0x400000
	DefaultDataBase  = 0x600000
	DefaultStackTop  = 0x7FFF_FFFF_F000
	DefaultStackSize = 8 << 20
)

// SectionKind classifies a section.
type SectionKind uint8

// Section kinds.
const (
	SecText   SectionKind = iota // executable code
	SecData                      // initialized writable data
	SecROData                    // read-only data
	SecBSS                       // zero-initialized data (no bytes stored)
	SecTramp                     // rewriter-added trampoline code
	SecMeta                      // rewriter-added metadata (not loaded for execution)
)

// String names the section kind.
func (k SectionKind) String() string {
	switch k {
	case SecText:
		return "text"
	case SecData:
		return "data"
	case SecROData:
		return "rodata"
	case SecBSS:
		return "bss"
	case SecTramp:
		return "tramp"
	case SecMeta:
		return "meta"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Section is a named contiguous region of the image.
type Section struct {
	Name  string
	Kind  SectionKind
	Addr  uint64 // virtual load address
	Size  uint64 // size in memory (≥ len(Data); BSS has no data)
	Data  []byte
	Write bool // writable when loaded
	Exec  bool // executable when loaded
}

// End returns the first address past the section.
func (s *Section) End() uint64 { return s.Addr + s.Size }

// Symbol is an optional name for an address. Stripped binaries carry none.
type Symbol struct {
	Name string
	Addr uint64
	Size uint64
	Func bool // function (vs data object)
}

// Binary is a loaded or constructed RELF image.
type Binary struct {
	PIC      bool // position-independent: addresses are relative until rebased
	Stripped bool // no symbol information
	Entry    uint64
	Sections []*Section
	Symbols  []Symbol // empty if Stripped
	Imports  []string // imported function names; RTCALL immediates index this
}

// Section returns the first section with the given name, or nil.
func (b *Binary) Section(name string) *Section {
	for _, s := range b.Sections {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Text returns the (first) executable text section, or nil.
func (b *Binary) Text() *Section {
	for _, s := range b.Sections {
		if s.Kind == SecText {
			return s
		}
	}
	return nil
}

// SectionAt returns the section containing addr, or nil.
func (b *Binary) SectionAt(addr uint64) *Section {
	for _, s := range b.Sections {
		if addr >= s.Addr && addr < s.End() {
			return s
		}
	}
	return nil
}

// AddSection appends a section and returns it.
func (b *Binary) AddSection(s *Section) *Section {
	b.Sections = append(b.Sections, s)
	return s
}

// ImportIndex returns the index of name in the import table, adding it if
// absent.
func (b *Binary) ImportIndex(name string) int {
	for i, n := range b.Imports {
		if n == name {
			return i
		}
	}
	b.Imports = append(b.Imports, name)
	return len(b.Imports) - 1
}

// Lookup returns the address of the named symbol. It fails on stripped
// binaries or unknown names.
func (b *Binary) Lookup(name string) (uint64, bool) {
	for _, s := range b.Symbols {
		if s.Name == name {
			return s.Addr, true
		}
	}
	return 0, false
}

// SymbolAt returns the symbol covering addr, if any.
func (b *Binary) SymbolAt(addr uint64) (Symbol, bool) {
	for _, s := range b.Symbols {
		if addr >= s.Addr && addr < s.Addr+s.Size {
			return s, true
		}
	}
	return Symbol{}, false
}

// Strip removes all symbol information, modelling a stripped COTS binary.
func (b *Binary) Strip() {
	b.Symbols = nil
	b.Stripped = true
}

// Rebase slides every address in the image by delta. Only meaningful for
// PIC binaries; the loader uses it to model PIE/ASLR placement.
func (b *Binary) Rebase(delta uint64) {
	b.Entry += delta
	for _, s := range b.Sections {
		s.Addr += delta
	}
	for i := range b.Symbols {
		b.Symbols[i].Addr += delta
	}
}

// MaxAddr returns the highest mapped address in the image (exclusive).
func (b *Binary) MaxAddr() uint64 {
	var max uint64
	for _, s := range b.Sections {
		if s.End() > max {
			max = s.End()
		}
	}
	return max
}

// CheckOverlaps verifies that no two sections overlap in the address space.
func (b *Binary) CheckOverlaps() error {
	secs := make([]*Section, len(b.Sections))
	copy(secs, b.Sections)
	sort.Slice(secs, func(i, j int) bool { return secs[i].Addr < secs[j].Addr })
	for i := 1; i < len(secs); i++ {
		if secs[i].Addr < secs[i-1].End() {
			return fmt.Errorf("relf: sections %q and %q overlap",
				secs[i-1].Name, secs[i].Name)
		}
	}
	return nil
}

// Clone returns a deep copy of the binary. The rewriter instruments a clone
// so the original image stays intact (the paper's prog.orig → prog.hard
// workflow keeps both).
func (b *Binary) Clone() *Binary {
	nb := &Binary{
		PIC:      b.PIC,
		Stripped: b.Stripped,
		Entry:    b.Entry,
		Imports:  append([]string(nil), b.Imports...),
		Symbols:  append([]Symbol(nil), b.Symbols...),
	}
	for _, s := range b.Sections {
		ns := *s
		ns.Data = append([]byte(nil), s.Data...)
		nb.Sections = append(nb.Sections, &ns)
	}
	return nb
}

// --- Serialization ---

const (
	flagPIC      = 1 << 0
	flagStripped = 1 << 1
)

// Marshal serializes the binary image to bytes.
func (b *Binary) Marshal() ([]byte, error) {
	var buf bytes.Buffer
	buf.Write(Magic[:])
	w32 := func(v uint32) { binary.Write(&buf, binary.LittleEndian, v) }
	w64 := func(v uint64) { binary.Write(&buf, binary.LittleEndian, v) }
	var long error // the first name too long for its 16-bit length
	wstr := func(s string) {
		if len(s) > 0xFFFF && long == nil {
			long = formatErr("name %.16q... of %d bytes exceeds the 65535-byte limit", s, len(s))
		}
		binary.Write(&buf, binary.LittleEndian, uint16(len(s)))
		buf.WriteString(s)
	}
	w32(Version)
	var flags uint32
	if b.PIC {
		flags |= flagPIC
	}
	if b.Stripped {
		flags |= flagStripped
	}
	w32(flags)
	w64(b.Entry)

	w32(uint32(len(b.Sections)))
	for _, s := range b.Sections {
		wstr(s.Name)
		buf.WriteByte(byte(s.Kind))
		var perm byte
		if s.Write {
			perm |= 1
		}
		if s.Exec {
			perm |= 2
		}
		buf.WriteByte(perm)
		w64(s.Addr)
		w64(s.Size)
		w64(uint64(len(s.Data)))
		buf.Write(s.Data)
	}

	w32(uint32(len(b.Symbols)))
	for _, s := range b.Symbols {
		wstr(s.Name)
		w64(s.Addr)
		w64(s.Size)
		if s.Func {
			buf.WriteByte(1)
		} else {
			buf.WriteByte(0)
		}
	}

	w32(uint32(len(b.Imports)))
	for _, n := range b.Imports {
		wstr(n)
	}

	if long != nil {
		return nil, long
	}
	sum := crc32.ChecksumIEEE(buf.Bytes())
	binary.Write(&buf, binary.LittleEndian, sum)
	return buf.Bytes(), nil
}

// FormatError reports bytes no encoder in this package produces: a
// corrupt or truncated image, or a malformed metadata section. Images
// and their sections are untrusted input, so every decoder here fails
// with one instead of faulting the host. Marshal returns one for a
// binary the format cannot hold: a name over 65,535 bytes.
type FormatError struct{ Reason string }

// Error implements the error interface.
func (e *FormatError) Error() string { return "relf: " + e.Reason }

func formatErr(format string, args ...any) error {
	return &FormatError{Reason: fmt.Sprintf(format, args...)}
}

// Unmarshal parses a serialized RELF image.
func Unmarshal(data []byte) (*Binary, error) {
	if len(data) < 4+4+4+8+4 {
		return nil, formatErr("image too small (%d bytes)", len(data))
	}
	if !bytes.Equal(data[:4], Magic[:]) {
		return nil, formatErr("bad magic % x", data[:4])
	}
	body, sumBytes := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(sumBytes) {
		return nil, formatErr("checksum mismatch")
	}
	pos := 4
	r32 := func() (uint32, error) {
		if pos+4 > len(body) {
			return 0, formatErr("truncated at %d", pos)
		}
		v := binary.LittleEndian.Uint32(body[pos:])
		pos += 4
		return v, nil
	}
	r64 := func() (uint64, error) {
		if pos+8 > len(body) {
			return 0, formatErr("truncated at %d", pos)
		}
		v := binary.LittleEndian.Uint64(body[pos:])
		pos += 8
		return v, nil
	}
	r8 := func() (byte, error) {
		if pos+1 > len(body) {
			return 0, formatErr("truncated at %d", pos)
		}
		v := body[pos]
		pos++
		return v, nil
	}
	rstr := func() (string, error) {
		if pos+2 > len(body) {
			return "", formatErr("truncated at %d", pos)
		}
		n := int(binary.LittleEndian.Uint16(body[pos:]))
		pos += 2
		if pos+n > len(body) {
			return "", formatErr("truncated string at %d", pos)
		}
		s := string(body[pos : pos+n])
		pos += n
		return s, nil
	}

	ver, err := r32()
	if err != nil {
		return nil, err
	}
	if ver != Version {
		return nil, formatErr("unsupported version %d", ver)
	}
	flags, err := r32()
	if err != nil {
		return nil, err
	}
	b := &Binary{
		PIC:      flags&flagPIC != 0,
		Stripped: flags&flagStripped != 0,
	}
	if b.Entry, err = r64(); err != nil {
		return nil, err
	}

	nsec, err := r32()
	if err != nil {
		return nil, err
	}
	const maxCount = 1 << 20
	if nsec > maxCount {
		return nil, formatErr("unreasonable section count %d", nsec)
	}
	for i := uint32(0); i < nsec; i++ {
		s := &Section{}
		if s.Name, err = rstr(); err != nil {
			return nil, err
		}
		k, err := r8()
		if err != nil {
			return nil, err
		}
		s.Kind = SectionKind(k)
		perm, err := r8()
		if err != nil {
			return nil, err
		}
		s.Write = perm&1 != 0
		s.Exec = perm&2 != 0
		if s.Addr, err = r64(); err != nil {
			return nil, err
		}
		if s.Size, err = r64(); err != nil {
			return nil, err
		}
		dlen, err := r64()
		if err != nil {
			return nil, err
		}
		if dlen > uint64(len(body)-pos) {
			return nil, formatErr("section %q data truncated", s.Name)
		}
		s.Data = append([]byte(nil), body[pos:pos+int(dlen)]...)
		pos += int(dlen)
		b.Sections = append(b.Sections, s)
	}

	nsym, err := r32()
	if err != nil {
		return nil, err
	}
	if nsym > maxCount {
		return nil, formatErr("unreasonable symbol count %d", nsym)
	}
	for i := uint32(0); i < nsym; i++ {
		var s Symbol
		if s.Name, err = rstr(); err != nil {
			return nil, err
		}
		if s.Addr, err = r64(); err != nil {
			return nil, err
		}
		if s.Size, err = r64(); err != nil {
			return nil, err
		}
		f, err := r8()
		if err != nil {
			return nil, err
		}
		s.Func = f != 0
		b.Symbols = append(b.Symbols, s)
	}

	nimp, err := r32()
	if err != nil {
		return nil, err
	}
	if nimp > maxCount {
		return nil, formatErr("unreasonable import count %d", nimp)
	}
	for i := uint32(0); i < nimp; i++ {
		n, err := rstr()
		if err != nil {
			return nil, err
		}
		b.Imports = append(b.Imports, n)
	}
	return b, nil
}
