// Package heap implements a glibc-style baseline memory allocator.
//
// This is the allocator uninstrumented binaries run with: a brk-style
// arena with boundary-tag headers and size-binned free lists. It lives in
// a non-fat region (well below the low-fat regions at 32 GB), so pointers
// it returns are non-fat by construction.
//
// The RedFat workflow replaces this allocator with the redzone/low-fat one
// (package redzone) by rebinding the malloc/free imports — the simulation
// of the paper's LD_PRELOAD interposition.
package heap

import (
	"fmt"

	"redfat/internal/mem"
	"redfat/internal/telemetry"
)

// Arena placement: a classic brk heap placed above the data segment and
// far (≫2 GB) below the low-fat regions.
const (
	ArenaBase = 0x10000000        // 256 MB
	ArenaEnd  = ArenaBase + 1<<30 // 1 GB arena
)

// headerSize is the boundary-tag header prepended to each chunk: 8 bytes
// holding the chunk size (including header), plus 8 bytes of padding to
// keep 16-byte alignment, like glibc.
const headerSize = 16

// Heap is the baseline allocator.
type Heap struct {
	Mem *mem.Memory

	next     uint64 // wilderness bump pointer
	mappedTo uint64
	bins     map[uint64][]uint64 // chunk size → free chunk addresses

	allocs    uint64
	frees     uint64
	errors    uint64
	liveBytes uint64 // chunk bytes currently handed out

	// TrackSites enables forensic per-chunk allocation records; SiteDepth
	// is the guest-backtrace depth captured per allocator call (0 = call
	// site PC only). Both are set by the runtime layer; capture is
	// host-side only.
	TrackSites bool
	SiteDepth  int

	sites      map[uint64]AllocRecord // chunk base → forensic record
	notedPC    uint64
	notedStack []uint64

	tel *heapMetrics
}

// AllocRecord is the forensic bookkeeping of one chunk: where it was
// allocated (and, once freed, released), by whom. Stacks are guest
// return-address chains, innermost caller first.
type AllocRecord struct {
	PC    uint64   // guest PC of the allocating call site
	Size  uint64   // requested size
	Stack []uint64 // guest backtrace at allocation (nil unless SiteDepth > 0)

	FreePC    uint64   // guest PC of the free call, 0 while live
	FreeStack []uint64 // guest backtrace at free (nil unless captured)
}

// heapMetrics holds the allocator's registry handles (nil when telemetry
// is off; every handle method is nil-safe anyway).
type heapMetrics struct {
	allocs    *telemetry.Counter
	frees     *telemetry.Counter
	errors    *telemetry.Counter
	liveBytes *telemetry.Gauge
	sizes     *telemetry.Histogram
}

// AttachTelemetry binds the baseline heap's counters to reg.
func (h *Heap) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	h.tel = &heapMetrics{
		allocs:    reg.Counter("heap.allocs"),
		frees:     reg.Counter("heap.frees"),
		errors:    reg.Counter("heap.errors"),
		liveBytes: reg.Gauge("heap.live.bytes"),
		sizes:     reg.Histogram("heap.alloc.size", telemetry.Pow2Bounds(4, 26)),
	}
}

// New creates a baseline heap on m.
func New(m *mem.Memory) *Heap {
	return &Heap{
		Mem:      m,
		next:     ArenaBase,
		mappedTo: ArenaBase,
		bins:     make(map[uint64][]uint64),
	}
}

// NoteAllocPC records the guest call site of the next Malloc/Free (set by
// the libc binding, which knows the VM's program counter).
func (h *Heap) NoteAllocPC(pc uint64) { h.notedPC, h.notedStack = pc, nil }

// NoteAllocStack additionally records the guest backtrace of the next
// Malloc/Free (captured by the libc binding when SiteDepth asks for it).
func (h *Heap) NoteAllocStack(stack []uint64) { h.notedStack = stack }

// SiteStackDepth reports the backtrace depth the heap wants captured per
// allocator call; 0 when site tracking is off.
func (h *Heap) SiteStackDepth() int {
	if !h.TrackSites {
		return 0
	}
	return h.SiteDepth
}

// EnableSiteTracking turns on forensic per-chunk records with backtraces
// bounded to the given depth.
func (h *Heap) EnableSiteTracking(depth int) {
	h.TrackSites = true
	h.SiteDepth = depth
}

// noteSite records the forensic allocation record for the chunk at base.
// Chunk reuse overwrites the previous generation's record, matching what
// the memory itself can still prove.
func (h *Heap) noteSite(base, size uint64) {
	if !h.TrackSites {
		return
	}
	if h.sites == nil {
		h.sites = make(map[uint64]AllocRecord)
	}
	h.sites[base] = AllocRecord{PC: h.notedPC, Size: size, Stack: h.notedStack}
}

// chunkSize rounds a request up to a binned chunk size: multiples of 16 up
// to 512 bytes, then powers of two. The padding this introduces is the
// padding the paper notes redzone tools cannot protect (§2.1).
func chunkSize(size uint64) uint64 {
	n := size + headerSize
	if n <= 512 {
		return (n + 15) &^ 15
	}
	c := uint64(1024)
	for c < n {
		c <<= 1
	}
	return c
}

// Malloc allocates size bytes, 16-byte aligned. A request larger than the
// arena fails with an out-of-memory error before chunkSize rounds it (the
// rounding would wrap near 2^64).
func (h *Heap) Malloc(size uint64) (uint64, error) {
	if size > ArenaEnd-ArenaBase-headerSize {
		return 0, fmt.Errorf("heap: out of memory: malloc(%d) exceeds the arena", size)
	}
	c := chunkSize(size)
	if lst := h.bins[c]; len(lst) > 0 {
		chunk := lst[len(lst)-1]
		h.bins[c] = lst[:len(lst)-1]
		h.allocs++
		if err := h.Mem.Store(chunk, 8, c); err != nil {
			return 0, err
		}
		h.noteAlloc(size, c)
		h.noteSite(chunk, size)
		return chunk + headerSize, nil
	}
	if h.next+c > ArenaEnd {
		return 0, fmt.Errorf("heap: arena exhausted")
	}
	chunk := h.next
	h.next += c
	if h.next > h.mappedTo {
		grow := c
		if grow < 1<<16 {
			grow = 1 << 16
		}
		end := (h.mappedTo + grow + mem.PageSize - 1) &^ uint64(mem.PageSize-1)
		if end > ArenaEnd {
			end = ArenaEnd
		}
		h.Mem.Map(h.mappedTo, end-h.mappedTo, mem.PermRW)
		h.mappedTo = end
	}
	if err := h.Mem.Store(chunk, 8, c); err != nil {
		return 0, err
	}
	h.allocs++
	h.noteAlloc(size, c)
	h.noteSite(chunk, size)
	return chunk + headerSize, nil
}

// noteAlloc and noteFree keep the live-byte account and mirror it into
// the attached telemetry registry.
func (h *Heap) noteAlloc(size, chunk uint64) {
	h.liveBytes += chunk
	if h.tel != nil {
		h.tel.allocs.Inc()
		h.tel.sizes.Observe(size)
		h.tel.liveBytes.Set(h.liveBytes)
	}
}

func (h *Heap) noteFree(chunk uint64) {
	if chunk > h.liveBytes {
		chunk = h.liveBytes
	}
	h.liveBytes -= chunk
	if h.tel != nil {
		h.tel.frees.Inc()
		h.tel.liveBytes.Set(h.liveBytes)
	}
}

func (h *Heap) noteError() {
	h.errors++
	if h.tel != nil {
		h.tel.errors.Inc()
	}
}

// Calloc allocates zeroed memory.
func (h *Heap) Calloc(n, size uint64) (uint64, error) {
	total := n * size
	if size != 0 && total/size != n {
		return 0, fmt.Errorf("heap: calloc overflow")
	}
	p, err := h.Malloc(total)
	if err != nil {
		return 0, err
	}
	if err := h.Mem.Memset(p, 0, total); err != nil {
		return 0, err
	}
	return p, nil
}

// Free returns a chunk to its bin. The baseline allocator performs only
// the cheap sanity checks glibc does; corrupted headers lead to the same
// class of undefined behaviour as on real systems (which is exactly what
// heap-overflow attacks exploit).
func (h *Heap) Free(ptr uint64) error {
	if ptr == 0 {
		return nil
	}
	chunk := ptr - headerSize
	c, err := h.Mem.Load(chunk, 8)
	if err != nil {
		h.noteError()
		return fmt.Errorf("heap: free of unmapped pointer %#x", ptr)
	}
	if c < headerSize || c > ArenaEnd-ArenaBase || c%16 != 0 {
		h.noteError()
		return fmt.Errorf("heap: free(%#x): invalid chunk size %#x", ptr, c)
	}
	h.bins[c] = append(h.bins[c], chunk)
	h.frees++
	h.noteFree(c)
	if s, ok := h.sites[chunk]; ok {
		s.FreePC = h.notedPC
		s.FreeStack = h.notedStack
		h.sites[chunk] = s
	}
	return nil
}

// Realloc resizes an allocation.
func (h *Heap) Realloc(ptr, size uint64) (uint64, error) {
	if ptr == 0 {
		return h.Malloc(size)
	}
	if size == 0 {
		return 0, h.Free(ptr)
	}
	c, err := h.Mem.Load(ptr-headerSize, 8)
	if err != nil {
		return 0, fmt.Errorf("heap: realloc of invalid pointer %#x", ptr)
	}
	old := c - headerSize
	if size <= old {
		return ptr, nil
	}
	np, err := h.Malloc(size)
	if err != nil {
		return 0, err
	}
	if err := h.Mem.Memcpy(np, ptr, old); err != nil {
		return 0, err
	}
	return np, h.Free(ptr)
}

// UsableSize returns the usable bytes of an allocation (chunk minus header).
func (h *Heap) UsableSize(ptr uint64) (uint64, error) {
	c, err := h.Mem.Load(ptr-headerSize, 8)
	if err != nil {
		return 0, err
	}
	return c - headerSize, nil
}

// ObjectInfo describes the baseline-heap chunk that owns an address,
// resolved for forensic reports.
type ObjectInfo struct {
	Chunk     uint64 // chunk base (boundary-tag header)
	Ptr       uint64 // user pointer (Chunk + header)
	ChunkSize uint64 // binned chunk size including header
	Offset    int64  // addr − Ptr
	Freed     bool   // chunk had been freed when resolved (per its record)

	Record    AllocRecord
	HasRecord bool
}

// ObjectAt resolves addr to its owning chunk by walking the boundary tags
// from the arena base — O(chunks), acceptable at error-report time. The
// walk trusts the headers; a corrupted header ends it early (the same
// blindness real allocator forensics have after a header smash).
func (h *Heap) ObjectAt(addr uint64) (ObjectInfo, bool) {
	if addr < ArenaBase || addr >= h.next {
		return ObjectInfo{}, false
	}
	base := uint64(ArenaBase)
	for base < h.next {
		c, err := h.Mem.Load(base, 8)
		if err != nil || c < headerSize || c%16 != 0 || base+c > ArenaEnd {
			return ObjectInfo{}, false // corrupted or unmapped header
		}
		if addr < base+c {
			info := ObjectInfo{
				Chunk:     base,
				Ptr:       base + headerSize,
				ChunkSize: c,
				Offset:    int64(addr) - int64(base+headerSize),
			}
			info.Record, info.HasRecord = h.sites[base]
			info.Freed = info.HasRecord && info.Record.FreePC != 0
			return info, true
		}
		base += c
	}
	return ObjectInfo{}, false
}

// Stats returns (allocs, frees, detected errors).
func (h *Heap) Stats() (allocs, frees, errors uint64) {
	return h.allocs, h.frees, h.errors
}
