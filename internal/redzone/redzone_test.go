package redzone

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redfat/internal/lowfat"
	"redfat/internal/mem"
)

func newHeap() *Heap {
	m := mem.New()
	return NewHeap(lowfat.New(m), m)
}

func TestMallocLayout(t *testing.T) {
	h := newHeap()
	p, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	base := lowfat.Base(p)
	if base != p-Size {
		t.Fatalf("object pointer %#x not 16 past slot base %#x", p, base)
	}
	// The slot services size+16 = 116 → class size 128.
	if lowfat.Size(p) != 128 {
		t.Errorf("slot size = %d, want 128", lowfat.Size(p))
	}
	size, err := h.ObjectSize(base)
	if err != nil || size != 100 {
		t.Errorf("ObjectSize = %d, %v", size, err)
	}
	// Object memory usable.
	if err := h.Mem.Store(p+92, 8, 0xFEED); err != nil {
		t.Errorf("object memory not writable: %v", err)
	}
}

func TestStateClassification(t *testing.T) {
	h := newHeap()
	p, _ := h.Malloc(40) // slot = 40+16=56 → class 64
	base := p - Size
	cases := []struct {
		ptr  uint64
		want State
	}{
		{base, StateRedzone},          // metadata itself
		{base + 15, StateRedzone},     // last redzone byte
		{p, StateAllocated},           // first object byte
		{p + 39, StateAllocated},      // last object byte
		{p + 40, StateRedzone},        // padding: OOB under accurate SIZE check
		{0x400000, StateNonFat},       // code address
		{0x7FFF00000000, StateNonFat}, // stack-ish address
	}
	for _, c := range cases {
		if got := h.StateOf(c.ptr); got != c.want {
			t.Errorf("StateOf(%#x) = %v, want %v", c.ptr, got, c.want)
		}
	}
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if got := h.StateOf(p); got != StateFree {
		t.Errorf("StateOf(freed) = %v, want free", got)
	}
}

func TestNextObjectRedzone(t *testing.T) {
	// The prepended redzone of the next slot protects the end of the
	// previous object (paper Fig. 3).
	h := newHeap()
	p1, _ := h.Malloc(48) // slot 64
	p2, _ := h.Malloc(48)
	base1, base2 := p1-Size, p2-Size
	if base2 != base1+64 && base1 != base2+64 {
		t.Skipf("slots not adjacent: %#x, %#x", base1, base2)
	}
	lo, hi := base1, base2
	if lo > hi {
		lo, hi = hi, lo
	}
	// Walking off the end of the low object hits the high slot's redzone.
	past := lo + 64
	if got := h.StateOf(past); got != StateRedzone {
		t.Errorf("StateOf(end of object) = %v, want redzone", got)
	}
}

func TestFreeErrors(t *testing.T) {
	h := newHeap()
	p, _ := h.Malloc(32)
	if err := h.Free(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Free(p); err == nil {
		t.Error("double free undetected")
	}
	if err := h.Free(p + 8); err == nil {
		t.Error("interior free undetected")
	}
	if err := h.Free(0); err != nil {
		t.Errorf("free(NULL) failed: %v", err)
	}
	if h.MallocErrors != 2 {
		t.Errorf("MallocErrors = %d, want 2", h.MallocErrors)
	}
}

func TestQuarantineDelaysReuse(t *testing.T) {
	h := newHeap()
	h.QuarantineBytes = 1 << 20
	p1, _ := h.Malloc(32)
	h.Free(p1)
	p2, _ := h.Malloc(32)
	if p1 == p2 {
		t.Error("quarantine did not delay slot reuse")
	}
	// Freed object remains classified Free while quarantined.
	if got := h.StateOf(p1); got != StateFree {
		t.Errorf("StateOf(quarantined) = %v", got)
	}

	// Without quarantine, reuse is immediate.
	h2 := newHeap()
	h2.QuarantineBytes = 0
	q1, _ := h2.Malloc(32)
	h2.Free(q1)
	q2, _ := h2.Malloc(32)
	if q1 != q2 {
		t.Error("expected immediate reuse with quarantine disabled")
	}
}

func TestQuarantineEviction(t *testing.T) {
	h := newHeap()
	h.QuarantineBytes = 128 // tiny: forces eviction
	var ptrs []uint64
	for i := 0; i < 10; i++ {
		p, _ := h.Malloc(32) // 48-byte slots
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		if err := h.Free(p); err != nil {
			t.Fatal(err)
		}
	}
	if h.LF.LiveCount() > 3 {
		t.Errorf("quarantine not evicting: %d slots still live", h.LF.LiveCount())
	}
}

func TestCallocZeroes(t *testing.T) {
	h := newHeap()
	// Dirty a slot, free it past the quarantine, then calloc into it.
	h.QuarantineBytes = 0
	p, _ := h.Malloc(64)
	h.Mem.Memset(p, 0xAA, 64)
	h.Free(p)
	q, err := h.Calloc(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if q != p {
		t.Skip("slot not reused")
	}
	for i := uint64(0); i < 64; i += 8 {
		v, _ := h.Mem.Load(q+i, 8)
		if v != 0 {
			t.Fatalf("calloc memory not zeroed at +%d: %#x", i, v)
		}
	}
	if _, err := h.Calloc(1<<32, 1<<32); err == nil {
		t.Error("calloc overflow undetected")
	}
}

func TestRealloc(t *testing.T) {
	h := newHeap()
	p, _ := h.Malloc(16)
	h.Mem.Store(p, 8, 0x1234)
	h.Mem.Store(p+8, 8, 0x5678)
	q, err := h.Realloc(p, 200)
	if err != nil {
		t.Fatal(err)
	}
	v1, _ := h.Mem.Load(q, 8)
	v2, _ := h.Mem.Load(q+8, 8)
	if v1 != 0x1234 || v2 != 0x5678 {
		t.Errorf("realloc lost contents: %#x %#x", v1, v2)
	}
	if got := h.StateOf(p); got != StateFree {
		t.Errorf("old object state = %v", got)
	}
	sz, _ := h.ObjectSize(q - Size)
	if sz != 200 {
		t.Errorf("new object size = %d", sz)
	}
	// realloc(NULL, n) == malloc(n); realloc(p, 0) == free(p).
	r, err := h.Realloc(0, 32)
	if err != nil || r == 0 {
		t.Errorf("realloc(NULL) = %#x, %v", r, err)
	}
	if _, err := h.Realloc(r, 0); err != nil {
		t.Errorf("realloc(p, 0): %v", err)
	}
}

// Property: for any allocation, every byte of the object is Allocated,
// every byte of the 16-byte redzone is Redzone, and the first byte past
// the object is never Allocated.
func TestQuickStateInvariant(t *testing.T) {
	h := newHeap()
	r := rand.New(rand.NewSource(13))
	f := func() bool {
		size := uint64(1 + r.Intn(5000))
		p, err := h.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		base := p - Size
		for i := 0; i < 8; i++ {
			off := uint64(r.Intn(Size))
			if h.StateOf(base+off) != StateRedzone {
				return false
			}
			objOff := uint64(r.Int63n(int64(size)))
			if h.StateOf(p+objOff) != StateAllocated {
				return false
			}
		}
		return h.StateOf(p+size) != StateAllocated
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestMallocHugeFails: a request whose size plus the 16-byte metadata
// header wraps past 2^64 fails with an out-of-memory error instead of
// returning a tiny slot that records the huge size.
func TestMallocHugeFails(t *testing.T) {
	h := newHeap()
	for _, size := range []uint64{^uint64(0), ^uint64(0) - 7, ^uint64(0) - Size + 1, ^uint64(0) - Size, 1 << 63} {
		if p, err := h.Malloc(size); err == nil {
			t.Errorf("Malloc(%#x) = %#x, want an out-of-memory error", size, p)
		}
	}
}
