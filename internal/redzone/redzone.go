// Package redzone implements the RedFat replacement memory allocator: a
// wrapper over the low-fat allocator that prepends a 16-byte redzone to
// every object (paper §4.1, Fig. 3).
//
// The redzone serves two purposes at once:
//
//  1. it is poisoned memory — any access to it is an out-of-bounds error;
//  2. it is the shadow storage for the object's STATE/SIZE metadata,
//     eliminating ASAN-style separate shadow memory.
//
// Conceptually: malloc(SIZE) = lowfat_malloc(SIZE+16)+16.
//
// The object layout (addresses grow up):
//
//	BASE+0  .. BASE+8   SIZE  (uint64; >0 ⇒ Allocated, 0 ⇒ Free)
//	BASE+8  .. BASE+16  object id (allocation counter; diagnostic)
//	BASE+16 ..          OBJECT (SIZE bytes), then slot padding
//
// Because a redzone is prepended to every object, the redzone of the *next*
// object in memory doubles as the redzone at the end of the current object,
// even if the next slot is unallocated (paper §4.1).
//
// State is recovered from a pointer with the low-fat base operation:
//
//	state(ptr) = ptr − base(ptr) < 16 ? Redzone : *base(ptr)
package redzone

import (
	"errors"
	"fmt"

	"redfat/internal/lowfat"
	"redfat/internal/mem"
	"redfat/internal/telemetry"
)

// Size is the redzone size in bytes (which is also the metadata size).
const Size = 16

// CanaryByte is the pattern the canary mode writes into slot slack (the
// bytes between the object end and the end of its low-fat slot). An
// overwrite that stays inside the slot — invisible to the merged bounds
// check, which only knows the slot geometry via SIZE — still destroys
// the pattern and is caught on free and on span-check crossings.
const CanaryByte = 0xA5

// CanaryError reports a smashed canary discovered while freeing an
// object. The free itself still completes (the detection must not leak
// the slot); callers translate the error into a corrupted-metadata
// report.
type CanaryError struct {
	Addr uint64 // first smashed slack byte
	Ptr  uint64 // the object pointer being freed
}

// Error implements the error interface.
func (e *CanaryError) Error() string {
	return fmt.Sprintf("redzone: canary smashed at %#x (detected freeing %#x)", e.Addr, e.Ptr)
}

// State is an object state, as encoded in the redzone metadata.
type State uint8

// Object states.
const (
	StateNonFat State = iota // pointer not managed by the low-fat heap
	StateRedzone
	StateAllocated
	StateFree
)

// String names the state.
func (s State) String() string {
	switch s {
	case StateNonFat:
		return "nonfat"
	case StateRedzone:
		return "redzone"
	case StateAllocated:
		return "allocated"
	case StateFree:
		return "free"
	}
	return fmt.Sprintf("state(%d)", uint8(s))
}

// Heap is the RedFat replacement allocator. In the real system this lives
// in libredfat.so and is interposed over glibc malloc via LD_PRELOAD; here
// the VM binds the malloc/free imports to it when hardening is enabled.
type Heap struct {
	LF  *lowfat.Allocator
	Mem *mem.Memory

	// QuarantineBytes delays slot reuse after free to improve
	// use-after-free detection, like ASAN's quarantine. Zero disables.
	QuarantineBytes uint64

	// Canary poisons the slot slack (object end → slot end) with
	// CanaryByte on every allocation and verifies it on free; span
	// checks additionally verify it when they cross an object. Guest
	// visible (slack bytes read back as the pattern), so the mode is
	// recorded in runpack replay specs.
	Canary bool

	// UnderAllocEvery enables the REDFAT_TEST-style self-test mode:
	// roughly one in every UnderAllocEvery allocations records SIZE one
	// byte short of the request, so a legitimate full-extent access
	// trips the bounds check and proves the detection machinery live.
	// Zero disables. Requires Rand; induced reports carry a
	// "self-test under-allocation" note tag.
	UnderAllocEvery uint64

	// Rand supplies the deterministic randomness for UnderAllocEvery
	// (the runtime layer wires it to vm.NextRand so replays reproduce
	// the same under-allocation sequence).
	Rand func() uint64

	quarantine      []uint64 // FIFO of slot bases awaiting real free
	quarantineUsage uint64
	nextID          uint64

	// MallocErrors counts invalid/double frees detected by the allocator
	// itself (as opposed to instrumentation-detected errors).
	MallocErrors uint64

	// SiteDepth is the guest-backtrace depth captured per allocation and
	// free (0 = call-site PC only). Set by the runtime layer when
	// forensics is enabled; capture is host-side only.
	SiteDepth int

	// allocPC maps object id → the call site that allocated it, for
	// ASAN-style error diagnostics ("allocated at ..."). The id is the
	// counter stored in the second metadata word of the redzone.
	allocPC    map[uint64]AllocRecord
	notedPC    uint64
	notedStack []uint64

	tel *rzMetrics
}

// rzMetrics holds the redzone wrapper's registry handles.
type rzMetrics struct {
	poisonOps       *telemetry.Counter // redzone metadata writes (arm on malloc, poison on free)
	mallocErrors    *telemetry.Counter
	quarantineBytes *telemetry.Gauge
	quarantineObjs  *telemetry.Gauge
	canaryFills     *telemetry.Counter // slots armed with the canary pattern
	canarySmashes   *telemetry.Counter // canary verifications that found an overwrite
	underAllocs     *telemetry.Counter // self-test under-allocations handed out
}

// AttachTelemetry binds the redzone wrapper's counters to reg and
// propagates the registry to the underlying low-fat allocator.
func (h *Heap) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	h.tel = &rzMetrics{
		poisonOps:       reg.Counter("redzone.poison.ops"),
		mallocErrors:    reg.Counter("redzone.malloc.errors"),
		quarantineBytes: reg.Gauge("redzone.quarantine.bytes"),
		quarantineObjs:  reg.Gauge("redzone.quarantine.objects"),
		canaryFills:     reg.Counter("redzone.canary.fills"),
		canarySmashes:   reg.Counter("redzone.canary.smashes"),
		underAllocs:     reg.Counter("redzone.underalloc.allocs"),
	}
	h.LF.AttachTelemetry(reg)
}

func (h *Heap) noteMallocError() {
	h.MallocErrors++
	if h.tel != nil {
		h.tel.mallocErrors.Inc()
	}
}

// AllocRecord is the forensic bookkeeping of one object: where it was
// allocated (and, once dead, freed), by whom. Stacks are guest
// return-address chains, innermost caller first; they are captured only
// when Heap.SiteDepth is set.
type AllocRecord struct {
	PC    uint64   // guest PC of the allocating call site
	Size  uint64   // recorded SIZE (requested, minus one when under-allocated)
	Stack []uint64 // guest backtrace at allocation (nil unless SiteDepth > 0)

	FreePC    uint64   // guest PC of the free call, 0 while live
	FreeStack []uint64 // guest backtrace at free (nil unless captured)

	// UnderAlloc marks a self-test under-allocation: the object's SIZE
	// was recorded one byte short of the request, so the detection it
	// induces can be tagged and filtered from false-positive counts.
	UnderAlloc bool
}

// NewHeap creates a RedFat heap over the given allocator and memory.
func NewHeap(lf *lowfat.Allocator, m *mem.Memory) *Heap {
	return &Heap{LF: lf, Mem: m, QuarantineBytes: 1 << 20,
		allocPC: make(map[uint64]AllocRecord)}
}

// NoteAllocPC records the guest call site of the next Malloc/Free (set by
// the libc binding, which knows the VM's program counter).
func (h *Heap) NoteAllocPC(pc uint64) { h.notedPC, h.notedStack = pc, nil }

// NoteAllocStack additionally records the guest backtrace of the next
// Malloc/Free (captured by the libc binding when SiteDepth asks for it).
func (h *Heap) NoteAllocStack(stack []uint64) { h.notedStack = stack }

// SiteStackDepth reports the backtrace depth the heap wants captured per
// allocator call (the libc binding consults it before walking frames).
func (h *Heap) SiteStackDepth() int { return h.SiteDepth }

// EnableSiteTracking turns on backtrace capture at the given depth (the
// PC-only allocPC bookkeeping is always on for this heap).
func (h *Heap) EnableSiteTracking(depth int) { h.SiteDepth = depth }

// SiteOf returns the allocation diagnostics for the object with the given
// id (the second metadata word at the object's redzone base).
func (h *Heap) SiteOf(id uint64) (allocPC, size, freePC uint64, ok bool) {
	s, ok := h.allocPC[id]
	return s.PC, s.Size, s.FreePC, ok
}

// Malloc allocates size bytes and returns the object pointer (BASE+16).
// In self-test mode (UnderAllocEvery) the recorded SIZE is randomly one
// byte short of the request; in canary mode the slot slack is filled
// with the canary pattern.
func (h *Heap) Malloc(size uint64) (uint64, error) {
	if size > lowfat.SizeMax-Size {
		return 0, fmt.Errorf("redzone: out of memory: malloc(%d)", size)
	}
	slot, err := h.LF.Alloc(size + Size)
	if err != nil {
		return 0, err
	}
	stored, under := size, false
	if h.UnderAllocEvery > 0 && size > 0 && h.Rand != nil &&
		h.Rand()%h.UnderAllocEvery == 0 {
		stored, under = size-1, true
		if h.tel != nil {
			h.tel.underAllocs.Inc()
		}
	}
	h.nextID++
	if err := h.Mem.Store(slot, 8, stored); err != nil {
		return 0, fmt.Errorf("redzone: header write: %w", err)
	}
	if err := h.Mem.Store(slot+8, 8, h.nextID); err != nil {
		return 0, err
	}
	h.allocPC[h.nextID] = AllocRecord{PC: h.notedPC, Size: stored,
		Stack: h.notedStack, UnderAlloc: under}
	if h.tel != nil {
		h.tel.poisonOps.Inc() // armed the redzone metadata for this object
	}
	if h.Canary {
		if err := h.armCanary(slot, stored); err != nil {
			return 0, err
		}
	}
	return slot + Size, nil
}

// Calloc allocates zeroed memory for n objects of the given size. Only
// the recorded SIZE is zeroed: an under-allocated object must not have
// its missing last byte zeroed through the slack (that would smash the
// canary and over-promise addressability the checks will deny).
func (h *Heap) Calloc(n, size uint64) (uint64, error) {
	total := n * size
	if size != 0 && total/size != n {
		return 0, fmt.Errorf("redzone: calloc overflow (%d × %d)", n, size)
	}
	ptr, err := h.Malloc(total)
	if err != nil {
		return 0, err
	}
	zero := total
	if stored, err := h.Mem.Load(ptr-Size, 8); err == nil && stored < zero {
		zero = stored
	}
	if err := h.Mem.Memset(ptr, 0, zero); err != nil {
		return 0, err
	}
	return ptr, nil
}

// armCanary fills the slot slack [object end, slot end) with CanaryByte.
// Legacy (non-low-fat) slots have no slot geometry to bound the slack
// and are skipped.
func (h *Heap) armCanary(slot, stored uint64) error {
	slotSize := lowfat.Size(slot)
	if slotSize == lowfat.SizeMax {
		return nil
	}
	start, end := slot+Size+stored, slot+slotSize
	if start >= end {
		return nil
	}
	if err := h.Mem.Memset(start, CanaryByte, end-start); err != nil {
		return err
	}
	if h.tel != nil {
		h.tel.canaryFills.Inc()
	}
	return nil
}

// CheckCanary verifies the canary slack of the allocated object in the
// slot at base, returning the address of the first smashed byte when
// the pattern was overwritten. It reports ok for freed slots, legacy
// slots and when the mode is off.
func (h *Heap) CheckCanary(base uint64) (uint64, bool) {
	if !h.Canary {
		return 0, true
	}
	size, err := h.Mem.Load(base, 8)
	if err != nil || size == 0 {
		return 0, true // freed or never handed out: nothing armed
	}
	return h.checkCanarySlack(base, size)
}

// checkCanarySlack scans the slack of an allocated slot for the first
// byte that no longer carries the canary pattern.
func (h *Heap) checkCanarySlack(base, size uint64) (uint64, bool) {
	slotSize := lowfat.Size(base)
	if slotSize == lowfat.SizeMax {
		return 0, true
	}
	addr, end := base+Size+size, base+slotSize
	for addr < end {
		span, err := h.Mem.LoadSlice(addr, int(end-addr))
		if err != nil {
			return 0, true // slack page unmapped: nothing to verify
		}
		for i, b := range span {
			if b != CanaryByte {
				if h.tel != nil {
					h.tel.canarySmashes.Inc()
				}
				return addr + uint64(i), false
			}
		}
		addr += uint64(len(span))
	}
	return 0, true
}

// UnderAllocated reports whether the object with the given id was
// deliberately under-allocated by the self-test mode.
func (h *Heap) UnderAllocated(id uint64) bool {
	s, ok := h.allocPC[id]
	return ok && s.UnderAlloc
}

// Free releases the object at ptr. Freeing a non-object pointer or an
// already-free object is detected and reported as an error.
func (h *Heap) Free(ptr uint64) error {
	if ptr == 0 {
		return nil // free(NULL) is a no-op
	}
	base := ptr - Size
	if lowfat.IsLowFat(ptr) {
		if lowfat.Base(base) != base || lowfat.Base(ptr) != base {
			h.noteMallocError()
			return fmt.Errorf("redzone: free of non-object pointer %#x", ptr)
		}
	}
	size, err := h.Mem.Load(base, 8)
	if err != nil {
		h.noteMallocError()
		return fmt.Errorf("redzone: free of unmapped pointer %#x", ptr)
	}
	if size == 0 {
		h.noteMallocError()
		return fmt.Errorf("redzone: double free of %#x", ptr)
	}
	// Canary mode: verify the slack before poisoning the header. A smash
	// is reported after the free completes — the detection must not leak
	// the slot or perturb quarantine accounting.
	var canaryErr error
	if h.Canary {
		if addr, ok := h.checkCanarySlack(base, size); !ok {
			canaryErr = &CanaryError{Addr: addr, Ptr: ptr}
		}
	}
	// Mark Free: SIZE=0 merges the free state into the bounds check
	// (paper §4.2, "Mergeable code").
	if err := h.Mem.Store(base, 8, 0); err != nil {
		return err
	}
	if h.tel != nil {
		h.tel.poisonOps.Inc() // poisoned the slot's Free state
	}
	if id, err := h.Mem.Load(base+8, 8); err == nil {
		if s, ok := h.allocPC[id]; ok {
			s.FreePC = h.notedPC
			s.FreeStack = h.notedStack
			h.allocPC[id] = s
		}
	}
	if h.QuarantineBytes == 0 {
		if err := h.LF.Free(base); err != nil {
			return err
		}
		return canaryErr
	}
	h.quarantine = append(h.quarantine, base)
	h.quarantineUsage += lowfat.Size(base)
	for h.quarantineUsage > h.QuarantineBytes && len(h.quarantine) > 0 {
		old := h.quarantine[0]
		h.quarantine = h.quarantine[1:]
		h.quarantineUsage -= lowfat.Size(old)
		if err := h.LF.Free(old); err != nil {
			return err
		}
	}
	if h.tel != nil {
		h.tel.quarantineBytes.Set(h.quarantineUsage)
		h.tel.quarantineObjs.Set(uint64(len(h.quarantine)))
	}
	return canaryErr
}

// Realloc resizes an allocation, copying the contents.
func (h *Heap) Realloc(ptr, size uint64) (uint64, error) {
	if ptr == 0 {
		return h.Malloc(size)
	}
	if size == 0 {
		return 0, h.Free(ptr)
	}
	oldSize, err := h.Mem.Load(ptr-Size, 8)
	if err != nil || oldSize == 0 {
		h.noteMallocError()
		return 0, fmt.Errorf("redzone: realloc of invalid pointer %#x", ptr)
	}
	np, err := h.Malloc(size)
	if err != nil {
		return 0, err
	}
	n := oldSize
	if size < n {
		n = size
	}
	if err := h.Mem.Memcpy(np, ptr, n); err != nil {
		return 0, err
	}
	if err := h.Free(ptr); err != nil {
		var ce *CanaryError
		if errors.As(err, &ce) {
			return np, err // the resize succeeded; surface the detection
		}
		return 0, err
	}
	return np, nil
}

// ObjectSize returns the malloc'd SIZE stored in the metadata of the object
// whose redzone base is base.
func (h *Heap) ObjectSize(base uint64) (uint64, error) {
	return h.Mem.Load(base, 8)
}

// ObjectInfo describes the heap object that owns (or is nearest to) a
// faulting address, resolved for forensic reports.
type ObjectInfo struct {
	Base     uint64 // redzone base of the owning slot
	Ptr      uint64 // object start (Base + redzone Size)
	Size     uint64 // object SIZE metadata (0 once freed; Record.Size keeps the original)
	ID       uint64 // allocation counter stored in the metadata
	SlotSize uint64 // low-fat slot size holding the object

	// Offset is addr − Ptr: negative inside the leading redzone,
	// ≥ Size past the end of the object.
	Offset  int64
	PastEnd bool // addr is beyond the object's last byte
	Freed   bool // SIZE metadata is 0, i.e. the object was freed

	Record    AllocRecord // forensic alloc/free record, if tracked
	HasRecord bool
}

// maxNeighborScan bounds the backward slot scan for far overflows.
const maxNeighborScan = 64

// ObjectAt resolves addr to its owning heap object. An address inside a
// slot's leading redzone doubles as the tail redzone of the *previous*
// adjacent slot (paper §4.1), so when the previous slot holds a tracked
// object the overflow is attributed to it as a past-the-end access —
// that is the common off-by-N heap overflow. A far (non-incremental)
// overflow lands in a slot never handed out; for those the scan walks
// backwards a bounded number of slots to the nearest tracked object, the
// ASan "N bytes to the right of" attribution.
func (h *Heap) ObjectAt(addr uint64) (ObjectInfo, bool) {
	base := lowfat.Base(addr)
	if base == 0 {
		return ObjectInfo{}, false
	}
	if addr-base < Size {
		// In the leading redzone: prefer the adjacent previous object.
		prev := base - lowfat.Size(base)
		if lowfat.Base(prev) == prev {
			if info, ok := h.slotInfo(prev, addr); ok && info.HasRecord {
				return info, true
			}
		}
	}
	if info, ok := h.slotInfo(base, addr); ok {
		return info, true
	}
	slot := lowfat.Size(base)
	for i := uint64(1); i <= maxNeighborScan && i*slot <= base; i++ {
		cand := base - i*slot
		if lowfat.Base(cand) != cand {
			break // left the size-class region
		}
		if info, ok := h.slotInfo(cand, addr); ok && info.HasRecord {
			return info, true
		}
	}
	return ObjectInfo{}, false
}

// slotInfo builds the ObjectInfo for the slot at base, classifying addr
// relative to that slot's object.
func (h *Heap) slotInfo(base, addr uint64) (ObjectInfo, bool) {
	size, err := h.Mem.Load(base, 8)
	if err != nil {
		return ObjectInfo{}, false // slot never handed out
	}
	id, err := h.Mem.Load(base+8, 8)
	if err != nil {
		return ObjectInfo{}, false
	}
	info := ObjectInfo{
		Base:     base,
		Ptr:      base + Size,
		Size:     size,
		ID:       id,
		SlotSize: lowfat.Size(base),
		Offset:   int64(addr) - int64(base+Size),
		Freed:    size == 0,
	}
	info.Record, info.HasRecord = h.allocPC[id]
	objSize := size
	if info.Freed && info.HasRecord {
		objSize = info.Record.Size // SIZE metadata poisoned on free
	}
	info.PastEnd = info.Offset >= 0 && uint64(info.Offset) >= objSize
	return info, info.ID != 0 || !info.Freed
}

// StateOf classifies ptr exactly as the instrumented check does: via the
// low-fat base operation and the in-redzone metadata (paper §4.1).
func (h *Heap) StateOf(ptr uint64) State {
	base := lowfat.Base(ptr)
	if base == 0 {
		return StateNonFat
	}
	if ptr-base < Size {
		return StateRedzone
	}
	size, err := h.Mem.Load(base, 8)
	if err != nil {
		return StateNonFat // slot never handed out; header unmapped
	}
	if size == 0 {
		return StateFree
	}
	if ptr-base < Size+size {
		return StateAllocated
	}
	// Past the object but inside the slot: allocation padding. The
	// accurate SIZE-based check treats this as out of bounds.
	return StateRedzone
}
