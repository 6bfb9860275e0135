// Package mem implements the sparse paged virtual memory used by the RF64
// virtual machine.
//
// The address space is the full 64-bit range, backed lazily by 4 KiB page
// frames allocated on Map. This is what lets the low-fat allocator (package
// lowfat) reserve many 32 GB virtual regions (paper Fig. 2) without
// committing physical memory — exactly the virtual-address-space trick the
// LowFat allocator plays on Linux with mmap(PROT_NONE) reservations.
//
// All simulated program memory lives in these explicitly managed frames, so
// the Go garbage collector never interacts with simulated pointers.
//
// # The software TLB
//
// Every guest memory access resolves its page through a direct-mapped
// software TLB (the classic binary-translation fast path), not through the
// Go page map. The TLB has TLBSize entries per access kind, with separate
// read/write/exec ways: an entry is only ever installed in a way whose
// permission the page actually grants, so the permission check is folded
// into the tag match and the hot path is one compare plus one indexed load
// — no branch on perm. Map/Unmap/Protect invalidate precisely (by page
// index when the affected range is small, full flush otherwise), so a TLB
// hit is always coherent with the page map.
//
// The TLB is a host-side cache only: hit or miss, every access faults at
// the same address with the same verdict as a page-map walk, so guest
// behaviour is bit-identical with the TLB disabled (NoTLB).
package mem

import (
	"encoding/binary"
	"fmt"

	"redfat/internal/obs"
)

// PageShift and PageSize define the 4 KiB page geometry.
const (
	PageShift = 12
	PageSize  = 1 << PageShift
	pageMask  = PageSize - 1
)

// TLB geometry: TLBSize direct-mapped entries per way (read/write/exec).
const (
	TLBBits = 6
	TLBSize = 1 << TLBBits
	tlbMask = TLBSize - 1
)

// invalidTag is a page index that cannot occur (it would require an
// address above 2^64), used to mark empty TLB entries.
const invalidTag = ^uint64(0)

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead  Perm = 1 << 0
	PermWrite Perm = 1 << 1
	PermExec  Perm = 1 << 2

	// PermRW and PermRX are the common combinations.
	PermRW = PermRead | PermWrite
	PermRX = PermRead | PermExec
)

// String renders the permissions as "rwx" flags.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// Fault describes a memory access violation.
type Fault struct {
	Addr  uint64
	Write bool
	Exec  bool
}

// Error implements the error interface.
func (f *Fault) Error() string {
	kind := "read"
	if f.Write {
		kind = "write"
	}
	if f.Exec {
		kind = "execute"
	}
	return fmt.Sprintf("segmentation fault: %s at %#x", kind, f.Addr)
}

type page struct {
	data [PageSize]byte
}

// pte maps one guest page: its permissions plus the backing frame. frame
// is nil until the first write materializes it, so mapping a large range
// allocates (and zeroes) nothing; reads and fetches of an unmaterialized
// page are served from the shared zeroFrame. Guest-visible behaviour is
// unchanged — pages are demand-zero either way.
type pte struct {
	frame *page
	perm  Perm
}

// zeroFrame backs every mapped-but-never-written page. It is shared
// across address spaces and must never be written: the write path always
// materializes a private frame first.
var zeroFrame page

// tlbEntry is one direct-mapped translation: the page index it covers and
// the resolved frame. The permission is implied by the way the entry lives
// in (an entry in the write way is only installed for writable pages).
type tlbEntry struct {
	tag  uint64
	page *page
}

// TLBStats reports the software TLB's hit/miss counters (host-side
// accounting; never affects guest state).
type TLBStats struct {
	Hits   uint64
	Misses uint64
}

// HitRate returns the fraction of probes that hit (0 when no probes ran).
func (s TLBStats) HitRate() float64 {
	if n := s.Hits + s.Misses; n > 0 {
		return float64(s.Hits) / float64(n)
	}
	return 0
}

// Memory is a sparse paged address space. The zero value is not ready for
// use; call New.
type Memory struct {
	pages map[uint64]pte

	// The software TLB: direct-mapped, one way per access kind.
	tlbRead  [TLBSize]tlbEntry
	tlbWrite [TLBSize]tlbEntry
	tlbExec  [TLBSize]tlbEntry

	// NoTLB disables TLB fills (every probe misses and walks the page
	// map). It is the reference path the TLB tests and the cache-free
	// dispatch identity row compare against, not a run knob. Set it
	// before the first access; guest-visible behaviour is identical
	// either way.
	NoTLB bool

	tlbHits   uint64
	tlbMisses uint64

	// Flight, when set, records TLB invalidations into the flight
	// recorder. Invalidation is already off the access fast path (it runs
	// on Map/Unmap/Protect, never on loads or stores), so recording adds
	// nothing to the hot probe. Nil-safe.
	Flight *obs.Flight

	mapped uint64 // number of mapped pages, for accounting

	// slab is the bump allocator behind materialized page frames: frames
	// are carved out of slabPages-sized arrays so first-write
	// materialization costs one bulk allocation (and one bulk zeroing)
	// per slabPages frames instead of one small heap object per 4 KiB
	// page. Frames are never recycled within a Memory (an unmapped
	// page's frame is dropped with its map entry), so every frame handed
	// out is still demand-zero.
	slab []page
}

// slabPages is the bump-allocation granule for page frames (1 MiB of
// guest memory per host allocation).
const slabPages = 256

// newPage carves the next zeroed frame out of the slab.
func (m *Memory) newPage() *page {
	if len(m.slab) == 0 {
		m.slab = make([]page, slabPages)
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	return p
}

// New returns an empty address space.
func New() *Memory {
	m := &Memory{pages: make(map[uint64]pte, 1024)}
	m.flushTLB()
	return m
}

// TLB returns the TLB hit/miss counters accumulated so far.
func (m *Memory) TLB() TLBStats { return TLBStats{Hits: m.tlbHits, Misses: m.tlbMisses} }

// flushTLB empties every way.
func (m *Memory) flushTLB() {
	for i := range m.tlbRead {
		m.tlbRead[i] = tlbEntry{tag: invalidTag}
		m.tlbWrite[i] = tlbEntry{tag: invalidTag}
		m.tlbExec[i] = tlbEntry{tag: invalidTag}
	}
}

// invalidate drops any TLB entries covering page indexes [first, last].
// Small ranges are evicted entry by entry; ranges at least as large as the
// TLB flush everything (cheaper than probing each index).
func (m *Memory) invalidate(first, last uint64) {
	m.Flight.Record(obs.EvTLBFlush, 0, first<<PageShift, last-first+1)
	if last-first >= TLBSize-1 {
		m.flushTLB()
		return
	}
	for idx := first; ; idx++ {
		slot := idx & tlbMask
		if m.tlbRead[slot].tag == idx {
			m.tlbRead[slot] = tlbEntry{tag: invalidTag}
		}
		if m.tlbWrite[slot].tag == idx {
			m.tlbWrite[slot] = tlbEntry{tag: invalidTag}
		}
		if m.tlbExec[slot].tag == idx {
			m.tlbExec[slot] = tlbEntry{tag: invalidTag}
		}
		if idx == last {
			break
		}
	}
}

// readPage resolves the page containing addr for a read access, or nil if
// the access would fault. The TLB probe is the hot path: one compare, one
// indexed load.
func (m *Memory) readPage(addr uint64) *page {
	idx := addr >> PageShift
	e := &m.tlbRead[idx&tlbMask]
	if e.tag == idx {
		m.tlbHits++
		return e.page
	}
	return m.readPageSlow(idx)
}

func (m *Memory) readPageSlow(idx uint64) *page {
	m.tlbMisses++
	e, ok := m.pages[idx]
	if !ok || e.perm&PermRead == 0 {
		return nil
	}
	f := e.frame
	if f == nil {
		f = &zeroFrame
	}
	if !m.NoTLB {
		m.tlbRead[idx&tlbMask] = tlbEntry{tag: idx, page: f}
	}
	return f
}

// writePage resolves the page containing addr for a write access, or nil.
func (m *Memory) writePage(addr uint64) *page {
	idx := addr >> PageShift
	e := &m.tlbWrite[idx&tlbMask]
	if e.tag == idx {
		m.tlbHits++
		return e.page
	}
	return m.writePageSlow(idx)
}

func (m *Memory) writePageSlow(idx uint64) *page {
	m.tlbMisses++
	e, ok := m.pages[idx]
	if !ok || e.perm&PermWrite == 0 {
		return nil
	}
	if e.frame == nil {
		e.frame = m.newPage()
		m.pages[idx] = e
		// The read and exec ways may alias this page to the shared
		// zeroFrame; drop those entries so future reads see the
		// materialized frame.
		slot := idx & tlbMask
		if m.tlbRead[slot].tag == idx {
			m.tlbRead[slot] = tlbEntry{tag: invalidTag}
		}
		if m.tlbExec[slot].tag == idx {
			m.tlbExec[slot] = tlbEntry{tag: invalidTag}
		}
	}
	if !m.NoTLB {
		m.tlbWrite[idx&tlbMask] = tlbEntry{tag: idx, page: e.frame}
	}
	return e.frame
}

// execPage resolves the page containing addr for instruction fetch, or nil.
func (m *Memory) execPage(addr uint64) *page {
	idx := addr >> PageShift
	e := &m.tlbExec[idx&tlbMask]
	if e.tag == idx {
		m.tlbHits++
		return e.page
	}
	return m.execPageSlow(idx)
}

func (m *Memory) execPageSlow(idx uint64) *page {
	m.tlbMisses++
	e, ok := m.pages[idx]
	if !ok || e.perm&PermExec == 0 {
		return nil
	}
	f := e.frame
	if f == nil {
		f = &zeroFrame
	}
	if !m.NoTLB {
		m.tlbExec[idx&tlbMask] = tlbEntry{tag: idx, page: f}
	}
	return f
}

// Map ensures [addr, addr+size) is mapped with the given permissions.
// Already-mapped pages have their permissions replaced. Mapping rounds
// outward to page boundaries, as mmap does.
func (m *Memory) Map(addr, size uint64, perm Perm) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	for idx := first; ; idx++ {
		e, ok := m.pages[idx]
		if !ok {
			m.mapped++ // new page; its frame materializes on first write
		}
		e.perm = perm
		m.pages[idx] = e
		if idx == last {
			break
		}
	}
	m.invalidate(first, last) // permissions changed
}

// Unmap removes the pages covering [addr, addr+size).
func (m *Memory) Unmap(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	for idx := first; ; idx++ {
		if _, ok := m.pages[idx]; ok {
			delete(m.pages, idx)
			m.mapped--
		}
		if idx == last {
			break
		}
	}
	m.invalidate(first, last)
}

// Protect changes permissions on the pages covering [addr, addr+size).
// Unmapped pages in the range are left unmapped.
func (m *Memory) Protect(addr, size uint64, perm Perm) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	for idx := first; ; idx++ {
		if e, ok := m.pages[idx]; ok {
			e.perm = perm
			m.pages[idx] = e
		}
		if idx == last {
			break
		}
	}
	m.invalidate(first, last)
}

// Mapped reports whether addr lies on a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	_, ok := m.pages[addr>>PageShift]
	return ok
}

// PermAt returns the permissions of the page containing addr (zero if
// unmapped).
func (m *Memory) PermAt(addr uint64) Perm {
	if e, ok := m.pages[addr>>PageShift]; ok {
		return e.perm
	}
	return 0
}

// MappedPages returns the number of mapped pages (for memory accounting).
func (m *Memory) MappedPages() uint64 { return m.mapped }

// Load reads a little-endian integer of the given width (1, 2, 4 or 8
// bytes) from addr.
func (m *Memory) Load(addr uint64, width uint16) (uint64, error) {
	p := m.readPage(addr)
	if p == nil {
		return 0, &Fault{Addr: addr}
	}
	off := addr & pageMask
	if off+uint64(width) <= PageSize {
		switch width {
		case 1:
			return uint64(p.data[off]), nil
		case 2:
			return uint64(binary.LittleEndian.Uint16(p.data[off:])), nil
		case 4:
			return uint64(binary.LittleEndian.Uint32(p.data[off:])), nil
		case 8:
			return binary.LittleEndian.Uint64(p.data[off:]), nil
		}
		return 0, fmt.Errorf("mem: bad load width %d", width)
	}
	return m.loadCross(p, addr, width)
}

// loadCross assembles a load that straddles a page boundary: the tail of
// the already-resolved first page, then the head of the next, iteratively
// (never byte-at-a-time recursion). A fault reports the exact address of
// the first inaccessible byte, as the per-byte path did.
func (m *Memory) loadCross(p *page, addr uint64, width uint16) (uint64, error) {
	var v uint64
	shift := uint(0)
	remain := uint64(width)
	for {
		off := addr & pageMask
		n := uint64(PageSize) - off
		if n > remain {
			n = remain
		}
		for _, b := range p.data[off : off+n] {
			v |= uint64(b) << shift
			shift += 8
		}
		remain -= n
		if remain == 0 {
			return v, nil
		}
		addr += n
		if p = m.readPage(addr); p == nil {
			return 0, &Fault{Addr: addr}
		}
	}
}

// Store writes a little-endian integer of the given width to addr.
func (m *Memory) Store(addr uint64, width uint16, val uint64) error {
	p := m.writePage(addr)
	if p == nil {
		return &Fault{Addr: addr, Write: true}
	}
	off := addr & pageMask
	if off+uint64(width) <= PageSize {
		switch width {
		case 1:
			p.data[off] = byte(val)
		case 2:
			binary.LittleEndian.PutUint16(p.data[off:], uint16(val))
		case 4:
			binary.LittleEndian.PutUint32(p.data[off:], uint32(val))
		case 8:
			binary.LittleEndian.PutUint64(p.data[off:], val)
		default:
			return fmt.Errorf("mem: bad store width %d", width)
		}
		return nil
	}
	return m.storeCross(p, addr, width, val)
}

// storeCross scatters a page-straddling store iteratively over the pages
// it touches. Permissions are checked per page before any of that page's
// bytes are written, and the fault address is the first inaccessible byte
// — identical to the byte-recursive path it replaces. (Bytes on earlier
// pages stay written on a fault, exactly as before.)
func (m *Memory) storeCross(p *page, addr uint64, width uint16, val uint64) error {
	remain := uint64(width)
	for {
		off := addr & pageMask
		n := uint64(PageSize) - off
		if n > remain {
			n = remain
		}
		for i := uint64(0); i < n; i++ {
			p.data[off+i] = byte(val)
			val >>= 8
		}
		remain -= n
		if remain == 0 {
			return nil
		}
		addr += n
		if p = m.writePage(addr); p == nil {
			return &Fault{Addr: addr, Write: true}
		}
	}
}

// LoadSlice returns the readable bytes starting at addr, up to max bytes
// or the end of addr's page, whichever is shorter — one TLB probe for the
// whole span. The returned slice aliases guest memory: it is valid until
// the next Unmap and writes through it are visible to the guest, so
// callers must treat it as read-only.
func (m *Memory) LoadSlice(addr uint64, max int) ([]byte, error) {
	p := m.readPage(addr)
	if p == nil {
		return nil, &Fault{Addr: addr}
	}
	off := addr & pageMask
	span := p.data[off:]
	if max >= 0 && max < len(span) {
		span = span[:max]
	}
	return span, nil
}

// ReadAt copies len(buf) bytes starting at addr into buf: one TLB probe
// per page touched.
func (m *Memory) ReadAt(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		p := m.readPage(addr)
		if p == nil {
			return &Fault{Addr: addr}
		}
		off := addr & pageMask
		n := copy(buf, p.data[off:])
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// WriteAt copies buf into memory starting at addr: one TLB probe per page
// touched.
func (m *Memory) WriteAt(addr uint64, buf []byte) error {
	for len(buf) > 0 {
		p := m.writePage(addr)
		if p == nil {
			return &Fault{Addr: addr, Write: true}
		}
		off := addr & pageMask
		n := copy(p.data[off:], buf)
		buf = buf[n:]
		addr += uint64(n)
	}
	return nil
}

// Fetch reads up to n instruction bytes at addr from executable pages into
// buf, returning the number of bytes available (which may be short if the
// next page is not executable). A zero return means addr itself is not
// executable.
func (m *Memory) Fetch(addr uint64, buf []byte) int {
	total := 0
	for total < len(buf) {
		p := m.execPage(addr)
		if p == nil {
			break
		}
		off := addr & pageMask
		n := copy(buf[total:], p.data[off:])
		total += n
		addr += uint64(n)
	}
	return total
}

// Memset fills [addr, addr+size) with the byte b, one TLB probe per page.
func (m *Memory) Memset(addr uint64, b byte, size uint64) error {
	for size > 0 {
		p := m.writePage(addr)
		if p == nil {
			return &Fault{Addr: addr, Write: true}
		}
		off := addr & pageMask
		n := uint64(PageSize) - off
		if n > size {
			n = size
		}
		span := p.data[off : off+n]
		for i := range span {
			span[i] = b
		}
		addr += n
		size -= n
	}
	return nil
}

// Memcpy copies size bytes from src to dst within the address space. Each
// chunk's source range is read in full before any of it is written, so
// fault ordering (source faults before destination faults within a chunk)
// matches the historical chunked implementation.
func (m *Memory) Memcpy(dst, src, size uint64) error {
	buf := make([]byte, 4096)
	for size > 0 {
		n := uint64(len(buf))
		if n > size {
			n = size
		}
		if err := m.ReadAt(src, buf[:n]); err != nil {
			return err
		}
		if err := m.WriteAt(dst, buf[:n]); err != nil {
			return err
		}
		dst += n
		src += n
		size -= n
	}
	return nil
}

// ReadCString reads a NUL-terminated string at addr (bounded by max
// bytes), scanning page-sized spans with one TLB probe each instead of a
// per-byte load.
func (m *Memory) ReadCString(addr uint64, max int) (string, error) {
	var out []byte
	for len(out) < max {
		span, err := m.LoadSlice(addr, max-len(out))
		if err != nil {
			return "", err
		}
		for i, b := range span {
			if b == 0 {
				return string(append(out, span[:i]...)), nil
			}
		}
		out = append(out, span...)
		addr += uint64(len(span))
	}
	return string(out), fmt.Errorf("mem: unterminated string at %#x", addr-uint64(len(out)))
}
