// Package shadow implements ASAN-style compact shadow memory: one shadow
// byte tracks the addressability of each 8-byte granule of application
// memory (paper §4.1, the state_shadow operation):
//
//	state_shadow(ptr) = *(SHADOW_MAP + (ptr ÷ 8))
//
// Shadow values follow the AddressSanitizer convention:
//
//	0        all 8 bytes addressable
//	1..7     only the first k bytes addressable
//	≥ 0x80   poisoned; the value identifies the poison kind
//
// This package backs the Valgrind-Memcheck comparison model (package
// memcheck), which uses redzone-only protection. RedFat itself does NOT
// use a separate shadow map — its metadata lives inside the redzone of
// each object (package redzone), which is one of the paper's design
// points.
package shadow

// Poison kinds (ASAN-compatible values).
const (
	Addressable = 0x00
	HeapRedzone = 0xFA
	FreedMemory = 0xFD
)

const (
	granuleShift = 3
	pageShift    = 12
	pageSize     = 1 << pageShift
)

// Map is a sparse shadow map. The zero value is not ready; use New.
type Map struct {
	pages map[uint64]*[pageSize]byte

	cacheIdx  uint64
	cachePage *[pageSize]byte
}

// New returns an empty shadow map where all memory is addressable.
func New() *Map {
	return &Map{pages: make(map[uint64]*[pageSize]byte), cacheIdx: ^uint64(0)}
}

// shadowAddr converts an application address to its shadow offset.
func shadowAddr(addr uint64) uint64 { return addr >> granuleShift }

func (m *Map) page(sa uint64, create bool) *[pageSize]byte {
	idx := sa >> pageShift
	if idx == m.cacheIdx {
		return m.cachePage
	}
	p := m.pages[idx]
	if p == nil && create {
		p = &[pageSize]byte{}
		m.pages[idx] = p
	}
	if p != nil {
		m.cacheIdx, m.cachePage = idx, p
	}
	return p
}

func (m *Map) get(sa uint64) byte {
	p := m.page(sa, false)
	if p == nil {
		return Addressable
	}
	return p[sa&(pageSize-1)]
}

func (m *Map) set(sa uint64, v byte) {
	p := m.page(sa, true)
	p[sa&(pageSize-1)] = v
}

// Poison marks [addr, addr+size) with the given poison kind. The range is
// expanded outward to whole granules (allocator redzones are 8-aligned in
// practice, so the expansion is a no-op there).
func (m *Map) Poison(addr, size uint64, kind byte) {
	if size == 0 {
		return
	}
	first := shadowAddr(addr)
	last := shadowAddr(addr + size - 1)
	for sa := first; sa <= last; sa++ {
		m.set(sa, kind)
	}
}

// Unpoison marks [addr, addr+size) addressable. addr must be 8-aligned; a
// trailing partial granule gets a partial shadow value so overflows into
// the granule's tail are still caught (ASAN's partial-rightmost encoding).
func (m *Map) Unpoison(addr, size uint64) {
	if size == 0 {
		return
	}
	sa := shadowAddr(addr)
	full := size >> granuleShift
	for i := uint64(0); i < full; i++ {
		m.set(sa+i, Addressable)
	}
	if rem := size & 7; rem != 0 {
		m.set(sa+full, byte(rem))
	}
}

// Check tests whether the access [addr, addr+size) touches poisoned or
// partially-addressable-beyond-limit memory. It returns the poison kind
// and true if the access is bad.
func (m *Map) Check(addr, size uint64) (byte, bool) {
	if size == 0 {
		return 0, false
	}
	first := shadowAddr(addr)
	last := shadowAddr(addr + size - 1)
	for sa := first; sa <= last; sa++ {
		s := m.get(sa)
		if s == Addressable {
			continue
		}
		if s >= 0x80 {
			return s, true
		}
		// Partial granule: the access within this granule must end at
		// or before the addressable prefix.
		granStart := sa << granuleShift
		accEnd := addr + size
		if granEnd := granStart + 8; accEnd > granEnd {
			accEnd = granEnd
		}
		if accEnd-granStart > uint64(s) {
			return s, true
		}
	}
	return 0, false
}

// State returns the raw shadow byte covering addr.
func (m *Map) State(addr uint64) byte { return m.get(shadowAddr(addr)) }
