package mem

import (
	"fmt"
	"testing"
)

// refMemory is the trivially correct model FuzzMemoryOps diffs Memory
// against: a map from page index to a permission and a 4 KiB array, with
// every access done byte by byte.
type refMemory map[uint64]*refPage

type refPage struct {
	perm Perm
	data [PageSize]byte
}

// pageRange returns the indexes of the first and last page covering
// [addr, addr+size).
func pageRange(addr, size uint64) (first, last uint64) {
	return addr >> PageShift, (addr + size - 1) >> PageShift
}

func (r refMemory) Map(addr, size uint64, perm Perm) {
	first, last := pageRange(addr, size)
	for idx := first; idx <= last; idx++ {
		if p := r[idx]; p != nil {
			p.perm = perm
		} else {
			r[idx] = &refPage{perm: perm}
		}
	}
}

func (r refMemory) Unmap(addr, size uint64) {
	first, last := pageRange(addr, size)
	for idx := first; idx <= last; idx++ {
		delete(r, idx)
	}
}

func (r refMemory) Protect(addr, size uint64, perm Perm) {
	first, last := pageRange(addr, size)
	for idx := first; idx <= last; idx++ {
		if p := r[idx]; p != nil {
			p.perm = perm
		}
	}
}

// pageAt returns the page holding addr if it grants want, else nil.
func (r refMemory) pageAt(addr uint64, want Perm) *refPage {
	if p := r[addr>>PageShift]; p != nil && p.perm&want != 0 {
		return p
	}
	return nil
}

func (r refMemory) Load(addr uint64, width uint16) (uint64, error) {
	var v uint64
	for i := uint64(0); i < uint64(width); i++ {
		p := r.pageAt(addr+i, PermRead)
		if p == nil {
			return 0, &Fault{Addr: addr + i}
		}
		v |= uint64(p.data[(addr+i)&pageMask]) << (8 * i)
	}
	return v, nil
}

func (r refMemory) Store(addr uint64, width uint16, val uint64) error {
	for i := uint64(0); i < uint64(width); i++ {
		p := r.pageAt(addr+i, PermWrite)
		if p == nil {
			return &Fault{Addr: addr + i, Write: true}
		}
		p.data[(addr+i)&pageMask] = byte(val >> (8 * i))
	}
	return nil
}

func (r refMemory) ReadAt(addr uint64, buf []byte) error {
	for i := range buf {
		a := addr + uint64(i)
		p := r.pageAt(a, PermRead)
		if p == nil {
			return &Fault{Addr: a}
		}
		buf[i] = p.data[a&pageMask]
	}
	return nil
}

func (r refMemory) WriteAt(addr uint64, buf []byte) error {
	for i, b := range buf {
		a := addr + uint64(i)
		p := r.pageAt(a, PermWrite)
		if p == nil {
			return &Fault{Addr: a, Write: true}
		}
		p.data[a&pageMask] = b
	}
	return nil
}

// Back writes data eagerly: the bytes a page reads are its backing's from
// the moment it is backed.
func (r refMemory) Back(addr uint64, data []byte) error { return r.WriteAt(addr, data) }

func (r refMemory) Fetch(addr uint64, buf []byte) int {
	for i := range buf {
		a := addr + uint64(i)
		p := r.pageAt(a, PermExec)
		if p == nil {
			return i
		}
		buf[i] = p.data[a&pageMask]
	}
	return len(buf)
}

// fuzzRegions are the bases of the address windows the fuzz operations
// land in, each fuzzSpan bytes wide: one straddling the first 2 MiB
// page-table boundary, one straddling the 32 GB low-fat region boundary
// of region 5 (also a table boundary), one near the top of the address
// space, far from both, and one straddling the boundary between the
// first two 64-page frame lines of one table.
var fuzzRegions = [...]uint64{
	0x200000 - fuzzSpan/2,
	5<<35 - fuzzSpan/2,
	^uint64(0) - 2*fuzzSpan + 1,
	0x400000 + linePages*PageSize - fuzzSpan/2,
}

const fuzzSpan = 16 * PageSize

// maxFuzzOps caps the operations decoded from one fuzz input.
const maxFuzzOps = 128

// opReader decodes the fuzz input; reads past the end yield ok == false.
type opReader struct {
	b  []byte
	ok bool
}

func (d *opReader) u8() uint8 {
	if len(d.b) == 0 {
		d.ok = false
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

func (d *opReader) u16() uint16 { return uint16(d.u8()) | uint16(d.u8())<<8 }

func (d *opReader) u64() uint64 {
	return uint64(d.u16()) | uint64(d.u16())<<16 | uint64(d.u16())<<32 | uint64(d.u16())<<48
}

// addr picks a window and an offset inside it.
func (d *opReader) addr() uint64 {
	base := fuzzRegions[int(d.u8())%len(fuzzRegions)]
	return base + uint64(d.u16())%fuzzSpan
}

// size returns a range length of 1 byte to 8 pages.
func (d *opReader) size() uint64 { return 1 + uint64(d.u16())%(8*PageSize) }

// memOps is the operation set FuzzMemoryOps drives; Memory and
// refMemory both implement it.
type memOps interface {
	Map(addr, size uint64, perm Perm)
	Unmap(addr, size uint64)
	Protect(addr, size uint64, perm Perm)
	Load(addr uint64, width uint16) (uint64, error)
	Store(addr uint64, width uint16, val uint64) error
	ReadAt(addr uint64, buf []byte) error
	WriteAt(addr uint64, buf []byte) error
	Back(addr uint64, data []byte) error
	Fetch(addr uint64, buf []byte) int
}

// FuzzMemoryOps decodes its input into a sequence of Map, Unmap, Protect,
// Load, Store, ReadAt, WriteAt, Fetch and Back operations and runs it
// against Memory with the TLB on, Memory with NoTLB, and refMemory, which
// writes backed bytes eagerly. Every result (value, fault, copied bytes)
// and the mapping state around the touched address must agree after each
// operation. Permissions cover all eight values, including 0 (mapped but
// inaccessible).
//
// Each operation is an opcode byte, a window byte and a 16-bit offset,
// then its operands: Map and Protect a 16-bit size and a permission byte,
// Unmap a 16-bit size, Load a width byte, Store a width byte and a 64-bit
// value, ReadAt a 16-bit length, WriteAt and Back a 16-bit length and a
// pattern byte, Fetch a length byte. Decoding stops at the end of the
// input or after maxFuzzOps operations, which bounds the cost of one
// input and so of minimizing one.
func FuzzMemoryOps(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		tlb, walk, ref := New(), New(), refMemory{}
		walk.NoTLB = true
		d := &opReader{b: data, ok: true}
		for step := 0; step < maxFuzzOps; step++ {
			op, addr := d.u8()%9, d.addr()
			var desc string
			var apply func(m memOps) string
			switch op {
			case 0, 2:
				size, perm := d.size(), Perm(d.u8()%8)
				if op == 0 {
					desc = fmt.Sprintf("Map(%#x, %#x, %v)", addr, size, perm)
					apply = func(m memOps) string { m.Map(addr, size, perm); return "" }
				} else {
					desc = fmt.Sprintf("Protect(%#x, %#x, %v)", addr, size, perm)
					apply = func(m memOps) string { m.Protect(addr, size, perm); return "" }
				}
			case 1:
				size := d.size()
				desc = fmt.Sprintf("Unmap(%#x, %#x)", addr, size)
				apply = func(m memOps) string { m.Unmap(addr, size); return "" }
			case 3:
				width := []uint16{1, 2, 4, 8}[d.u8()%4]
				desc = fmt.Sprintf("Load(%#x, %d)", addr, width)
				apply = func(m memOps) string {
					v, err := m.Load(addr, width)
					return fmt.Sprintf("%#x %v", v, err)
				}
			case 4:
				width, val := []uint16{1, 2, 4, 8}[d.u8()%4], d.u64()
				desc = fmt.Sprintf("Store(%#x, %d, %#x)", addr, width, val)
				apply = func(m memOps) string { return fmt.Sprint(m.Store(addr, width, val)) }
			case 5:
				n := int(d.u16()) % (2*PageSize + 1)
				desc = fmt.Sprintf("ReadAt(%#x, %d)", addr, n)
				apply = func(m memOps) string {
					buf := make([]byte, n)
					err := m.ReadAt(addr, buf)
					return fmt.Sprint(err) + " " + string(buf)
				}
			case 6, 8:
				n, pat := int(d.u16())%(2*PageSize+1), d.u8()
				write, name := memOps.WriteAt, "WriteAt"
				if op == 8 {
					write, name = memOps.Back, "Back"
				}
				desc = fmt.Sprintf("%s(%#x, %d)", name, addr, n)
				apply = func(m memOps) string {
					buf := make([]byte, n) // a backing keeps buf: one per memory
					for i := range buf {
						buf[i] = pat + byte(i)
					}
					return fmt.Sprint(write(m, addr, buf))
				}
			case 7:
				n := int(d.u8() % 32)
				desc = fmt.Sprintf("Fetch(%#x, %d)", addr, n)
				apply = func(m memOps) string {
					buf := make([]byte, n)
					got := m.Fetch(addr, buf)
					return fmt.Sprint(got) + " " + string(buf[:got])
				}
			}
			if !d.ok {
				return
			}
			got, gotWalk, want := apply(tlb), apply(walk), apply(ref)
			if got != want || gotWalk != want {
				t.Fatalf("step %d %s: tlb %q, notlb %q, reference %q", step, desc, got, gotWalk, want)
			}
			checkMapping(t, step, desc, addr, ref, tlb, walk)
		}
	})
}

// checkMapping compares the mapping state around addr (its page and both
// neighbours) and the mapped-page count with the reference.
func checkMapping(t *testing.T, step int, desc string, addr uint64, ref refMemory, ms ...*Memory) {
	t.Helper()
	for _, m := range ms {
		if m.MappedPages() != uint64(len(ref)) {
			t.Fatalf("step %d %s: MappedPages = %d, reference %d", step, desc, m.MappedPages(), len(ref))
		}
		for _, a := range []uint64{addr - PageSize, addr, addr + PageSize} {
			p := ref[a>>PageShift]
			var want Perm
			if p != nil {
				want = p.perm
			}
			if m.Mapped(a) != (p != nil) || m.PermAt(a) != want {
				t.Fatalf("step %d %s: page %#x mapped=%v perm=%v, reference mapped=%v perm=%v",
					step, desc, a>>PageShift, m.Mapped(a), m.PermAt(a), p != nil, want)
			}
		}
	}
}
