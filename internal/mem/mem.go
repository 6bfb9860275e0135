// Package mem implements the sparse paged virtual memory used by the RF64
// virtual machine.
//
// The address space is the full 64-bit range. This is what lets the
// low-fat allocator (package lowfat) reserve many 32 GB virtual regions
// (paper Fig. 2) without committing physical memory — exactly the
// virtual-address-space trick the LowFat allocator plays on Linux with
// mmap(PROT_NONE) reservations.
//
// # Page tables and frames
//
// A run pays for the guest memory it touches, not for what it maps. The
// address space is a directory of page tables, each covering 512 pages
// (2 MiB). A table holds one pointer-free permission byte per page, so
// mapping a range (an 8 MiB stack, a 64 KiB heap extension) only writes
// those bytes. Frame pointers sit in eight lines of 64 pages per table;
// a line (512 B) is allocated when one of its pages is first written, and
// the 4 KiB frame itself is carved out of a slab at that moment. Slabs
// grow geometrically (4, 8, … up to 256 frames), so a short run that
// writes a few pages allocates a few frames and a line or two per table
// it writes, rather than a whole MiB.
// A mapped page that was never written reads as zero: reads and fetches
// are served from one shared zero frame. Frames are never recycled: Unmap
// drops the page's frame, so every frame handed out is demand-zero.
//
// All simulated program memory lives in these explicitly managed frames, so
// the Go garbage collector never interacts with simulated pointers.
//
// # The software TLB
//
// Every guest memory access resolves its page through a direct-mapped
// software TLB (the classic binary-translation fast path), not through the
// page tables. The TLB has TLBSize entries per access kind, with separate
// read/write/exec ways: an entry is only ever installed in a way whose
// permission the page actually grants, so the permission check is folded
// into the tag match and the hot path is one compare plus one indexed load
// — no branch on perm. Map/Unmap/Protect invalidate precisely (by page
// index when the affected range is small, full flush otherwise), so a TLB
// hit is always coherent with the page tables.
//
// The TLB is a host-side cache only: hit or miss, every access faults at
// the same address with the same verdict as a page-table walk, so guest
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

// Page-table geometry: a table covers tablePages pages (2 MiB), and its
// frame pointers are kept in lines of linePages pages.
const (
	tableShift = 9
	tablePages = 1 << tableShift
	tableMask  = tablePages - 1

	lineShift = 6
	linePages = 1 << lineShift
	lineMask  = linePages - 1
)

// pageMapped marks a page as mapped in its table's permission byte, next
// to the Perm bits, so a page mapped with no permissions stays mapped.
const pageMapped Perm = 1 << 7

// pageTable maps one 2 MiB-aligned run of pages. perm is pointer-free, so
// mapping costs the garbage collector nothing. A line of frame pointers is
// nil until one of its linePages pages is first written, and a frame is
// nil until its page is first written; reads and fetches of an unwritten
// page are served from the shared zeroFrame, so pages are demand-zero.
type pageTable struct {
	perm  [tablePages]Perm // pageMapped | permissions, 0 when unmapped
	lines [tablePages / linePages]*[linePages]*page
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
	// tables is the page-table directory, keyed by page index >>
	// tableShift. Tables are never removed, so the one-entry cache
	// (lastIdx, last) of the most recently walked table stays valid.
	tables  map[uint64]*pageTable
	lastIdx uint64
	last    *pageTable

	// The software TLB: direct-mapped, one way per access kind.
	readWay  [TLBSize]tlbEntry
	writeWay [TLBSize]tlbEntry
	execWay  [TLBSize]tlbEntry

	// NoTLB disables TLB fills (every probe misses and walks the page
	// tables). It is the reference path the TLB tests and the cache-free
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
	// are carved out of slab arrays so first-write materialization costs
	// one bulk allocation (and one bulk zeroing) per slab instead of one
	// small heap object per 4 KiB page. Each slab is twice the size of
	// the previous one (slabSize frames), from minSlabPages up to
	// maxSlabPages, so a run that writes a handful of pages allocates a
	// handful of frames. Frames are never recycled within a Memory (an
	// unmapped page's frame is dropped), so every frame handed out is
	// still demand-zero.
	slab     []page
	slabSize int
}

// Slab geometry: the first slab holds minSlabPages frames (16 KiB of
// guest memory), the largest maxSlabPages (1 MiB).
const (
	minSlabPages = 4
	maxSlabPages = 256
)

// newPage carves the next zeroed frame out of the slab.
func (m *Memory) newPage() *page {
	if len(m.slab) == 0 {
		m.slabSize = min(max(2*m.slabSize, minSlabPages), maxSlabPages)
		m.slab = make([]page, m.slabSize)
	}
	p := &m.slab[0]
	m.slab = m.slab[1:]
	return p
}

// New returns an empty address space.
func New() *Memory {
	m := &Memory{tables: make(map[uint64]*pageTable), lastIdx: invalidTag}
	m.flushTLB()
	return m
}

// table returns the page table covering page index idx, or nil.
func (m *Memory) table(idx uint64) *pageTable {
	ti := idx >> tableShift
	if ti == m.lastIdx {
		return m.last
	}
	t := m.tables[ti]
	if t != nil {
		m.lastIdx, m.last = ti, t
	}
	return t
}

// eachTable calls fn for every page table overlapping page indexes
// [first, last], with the overlap as in-table indexes [lo, hi]. Missing
// tables are created when create is set and skipped otherwise.
func (m *Memory) eachTable(first, last uint64, create bool, fn func(t *pageTable, lo, hi uint64)) {
	for idx := first; ; {
		end := min(idx|tableMask, last)
		t := m.table(idx)
		if t == nil && create {
			t = &pageTable{}
			m.tables[idx>>tableShift] = t
		}
		if t != nil {
			fn(t, idx&tableMask, end&tableMask)
		}
		if end == last {
			return
		}
		idx = end + 1
	}
}

// TLB returns the TLB hit/miss counters accumulated so far.
func (m *Memory) TLB() TLBStats { return TLBStats{Hits: m.tlbHits, Misses: m.tlbMisses} }

// flushTLB empties every way.
func (m *Memory) flushTLB() {
	for i := range m.readWay {
		m.readWay[i] = tlbEntry{tag: invalidTag}
		m.writeWay[i] = tlbEntry{tag: invalidTag}
		m.execWay[i] = tlbEntry{tag: invalidTag}
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
		if m.readWay[slot].tag == idx {
			m.readWay[slot] = tlbEntry{tag: invalidTag}
		}
		if m.writeWay[slot].tag == idx {
			m.writeWay[slot] = tlbEntry{tag: invalidTag}
		}
		if m.execWay[slot].tag == idx {
			m.execWay[slot] = tlbEntry{tag: invalidTag}
		}
		if idx == last {
			break
		}
	}
}

// frame returns the frame backing page idx of table t for a read or
// fetch: the private frame once the page has been written, else the
// shared zeroFrame.
func (t *pageTable) frame(idx uint64) *page {
	if l := t.lines[(idx&tableMask)>>lineShift]; l != nil {
		if f := l[idx&lineMask]; f != nil {
			return f
		}
	}
	return &zeroFrame
}

// tlbRead probes the read way for page idx: its frame on a hit, nil on a
// miss (an installed entry never holds a nil frame). It is the hot path —
// one compare, one indexed load — and stays within the inlining budget,
// so Load and readPage pay no call on a hit; make inline-check guards it.
func (m *Memory) tlbRead(idx uint64) *page {
	e := &m.readWay[idx&tlbMask]
	if e.tag != idx {
		return nil
	}
	m.tlbHits++
	return e.page
}

// tlbWrite probes the write way for page idx, like tlbRead.
func (m *Memory) tlbWrite(idx uint64) *page {
	e := &m.writeWay[idx&tlbMask]
	if e.tag != idx {
		return nil
	}
	m.tlbHits++
	return e.page
}

// readPage resolves the page containing addr for a read access, or nil if
// the access would fault.
func (m *Memory) readPage(addr uint64) *page {
	idx := addr >> PageShift
	if p := m.tlbRead(idx); p != nil {
		return p
	}
	return m.readPageSlow(idx)
}

// readPageSlow is the read miss path: it walks the page tables and fills
// the read way.
func (m *Memory) readPageSlow(idx uint64) *page {
	m.tlbMisses++
	t := m.table(idx)
	if t == nil || t.perm[idx&tableMask]&PermRead == 0 {
		return nil
	}
	f := t.frame(idx)
	if !m.NoTLB {
		m.readWay[idx&tlbMask] = tlbEntry{tag: idx, page: f}
	}
	return f
}

// writePage resolves the page containing addr for a write access, or nil.
func (m *Memory) writePage(addr uint64) *page {
	idx := addr >> PageShift
	if p := m.tlbWrite(idx); p != nil {
		return p
	}
	return m.writePageSlow(idx)
}

// writePageSlow is the write miss path: it walks the page tables,
// materializes the page's frame on its first write and fills the write
// way.
func (m *Memory) writePageSlow(idx uint64) *page {
	m.tlbMisses++
	t := m.table(idx)
	if t == nil || t.perm[idx&tableMask]&PermWrite == 0 {
		return nil
	}
	l := t.lines[(idx&tableMask)>>lineShift]
	if l == nil {
		l = new([linePages]*page)
		t.lines[(idx&tableMask)>>lineShift] = l
	}
	f := l[idx&lineMask]
	if f == nil {
		f = m.newPage()
		l[idx&lineMask] = f
		// The read and exec ways may alias this page to the shared
		// zeroFrame; drop those entries so future reads see the
		// materialized frame.
		slot := idx & tlbMask
		if m.readWay[slot].tag == idx {
			m.readWay[slot] = tlbEntry{tag: invalidTag}
		}
		if m.execWay[slot].tag == idx {
			m.execWay[slot] = tlbEntry{tag: invalidTag}
		}
	}
	if !m.NoTLB {
		m.writeWay[idx&tlbMask] = tlbEntry{tag: idx, page: f}
	}
	return f
}

// execPage resolves the page containing addr for instruction fetch, or nil.
func (m *Memory) execPage(addr uint64) *page {
	idx := addr >> PageShift
	e := &m.execWay[idx&tlbMask]
	if e.tag == idx {
		m.tlbHits++
		return e.page
	}
	return m.execPageSlow(idx)
}

func (m *Memory) execPageSlow(idx uint64) *page {
	m.tlbMisses++
	t := m.table(idx)
	if t == nil || t.perm[idx&tableMask]&PermExec == 0 {
		return nil
	}
	f := t.frame(idx)
	if !m.NoTLB {
		m.execWay[idx&tlbMask] = tlbEntry{tag: idx, page: f}
	}
	return f
}

// Map ensures [addr, addr+size) is mapped with the given permissions.
// Already-mapped pages have their permissions replaced. Mapping rounds
// outward to page boundaries, as mmap does. Mapping writes one byte per
// page; frames materialize on first write.
func (m *Memory) Map(addr, size uint64, perm Perm) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	m.eachTable(first, last, true, func(t *pageTable, lo, hi uint64) {
		for i := lo; i <= hi; i++ {
			if t.perm[i]&pageMapped == 0 {
				m.mapped++
			}
			t.perm[i] = pageMapped | perm
		}
	})
	m.invalidate(first, last) // permissions changed
}

// Unmap removes the pages covering [addr, addr+size) and drops their
// frames, so a page mapped again reads as zero.
func (m *Memory) Unmap(addr, size uint64) {
	if size == 0 {
		return
	}
	first := addr >> PageShift
	last := (addr + size - 1) >> PageShift
	m.eachTable(first, last, false, func(t *pageTable, lo, hi uint64) {
		for i := lo; i <= hi; i++ {
			if t.perm[i]&pageMapped != 0 {
				t.perm[i] = 0
				m.mapped--
			}
			if l := t.lines[i>>lineShift]; l != nil {
				l[i&lineMask] = nil
			}
		}
	})
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
	m.eachTable(first, last, false, func(t *pageTable, lo, hi uint64) {
		for i := lo; i <= hi; i++ {
			if t.perm[i]&pageMapped != 0 {
				t.perm[i] = pageMapped | perm
			}
		}
	})
	m.invalidate(first, last)
}

// Mapped reports whether addr lies on a mapped page.
func (m *Memory) Mapped(addr uint64) bool {
	idx := addr >> PageShift
	t := m.table(idx)
	return t != nil && t.perm[idx&tableMask]&pageMapped != 0
}

// PermAt returns the permissions of the page containing addr (zero if
// unmapped).
func (m *Memory) PermAt(addr uint64) Perm {
	idx := addr >> PageShift
	if t := m.table(idx); t != nil {
		return t.perm[idx&tableMask] &^ pageMapped
	}
	return 0
}

// MappedPages returns the number of mapped pages (for memory accounting).
func (m *Memory) MappedPages() uint64 { return m.mapped }

// Load reads a little-endian integer of the given width (1, 2, 4 or 8
// bytes) from addr.
func (m *Memory) Load(addr uint64, width uint16) (uint64, error) {
	idx := addr >> PageShift
	p := m.tlbRead(idx)
	if p == nil {
		if p = m.readPageSlow(idx); p == nil {
			return 0, &Fault{Addr: addr}
		}
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
	idx := addr >> PageShift
	p := m.tlbWrite(idx)
	if p == nil {
		if p = m.writePageSlow(idx); p == nil {
			return &Fault{Addr: addr, Write: true}
		}
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
