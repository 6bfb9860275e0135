package lowfat

import (
	"math/rand"
	"testing"
	"testing/quick"

	"redfat/internal/mem"
)

func TestSizesTable(t *testing.T) {
	// Linear classes: 16·i.
	for i := 1; i <= NumLinear; i++ {
		if got := ClassSize(i); got != uint64(16*i) {
			t.Errorf("ClassSize(%d) = %d, want %d", i, got, 16*i)
		}
	}
	// Power-of-two classes: 2 KB .. 64 MB.
	if got := ClassSize(NumLinear + 1); got != 2048 {
		t.Errorf("first pow2 class = %d, want 2048", got)
	}
	if got := ClassSize(NumClasses); got != MaxClassSize {
		t.Errorf("last class = %d, want %d", got, MaxClassSize)
	}
	// Out-of-range classes are non-fat.
	if ClassSize(0) != SizeMax || ClassSize(NumClasses+1) != SizeMax {
		t.Error("out-of-range class size not SizeMax")
	}
}

func TestClassFor(t *testing.T) {
	cases := []struct {
		size uint64
		want int
	}{
		{1, 1}, {15, 1}, {16, 1}, {17, 2}, {32, 2}, {33, 3},
		{1024, 64}, {1025, 65}, {2048, 65}, {2049, 66}, {4096, 66},
		{MaxClassSize, NumClasses}, {MaxClassSize + 1, 0}, {0, 1},
	}
	for _, c := range cases {
		if got := ClassFor(c.size); got != c.want {
			t.Errorf("ClassFor(%d) = %d, want %d", c.size, got, c.want)
		}
	}
	// ClassFor/ClassSize agree: ClassSize(ClassFor(n)) ≥ n.
	for n := uint64(1); n <= 4096; n++ {
		c := ClassFor(n)
		if c == 0 {
			t.Fatalf("ClassFor(%d) = 0", n)
		}
		if ClassSize(c) < n {
			t.Errorf("ClassSize(ClassFor(%d)) = %d < %d", n, ClassSize(c), n)
		}
		if c > 1 && ClassSize(c-1) >= n {
			t.Errorf("ClassFor(%d) = %d not minimal", n, c)
		}
	}
}

func TestSizeBaseNonFat(t *testing.T) {
	nonFat := []uint64{
		0, 0x400000, 0x601000, // code/data (region 0)
		0x7FFF_FFFF_0000,                        // stack
		uint64(LegacyRegionIndex) * RegionSize,  // legacy heap
		uint64(NumClasses+1)*RegionSize + 0x100, // past last class
	}
	for _, p := range nonFat {
		if Size(p) != SizeMax {
			t.Errorf("Size(%#x) = %d, want SizeMax", p, Size(p))
		}
		if Base(p) != 0 {
			t.Errorf("Base(%#x) = %#x, want 0", p, Base(p))
		}
		if IsLowFat(p) {
			t.Errorf("IsLowFat(%#x) = true", p)
		}
	}
}

func TestAllocBasic(t *testing.T) {
	a := New(mem.New())
	p, err := a.Alloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if !IsLowFat(p) {
		t.Fatalf("Alloc(100) = %#x not low-fat", p)
	}
	if got := Size(p); got != 112 { // class 7: 16·7
		t.Errorf("Size = %d, want 112", got)
	}
	if Base(p) != p {
		t.Errorf("Base(%#x) = %#x, want identity at object start", p, Base(p))
	}
	if p%Size(p) != 0 {
		t.Errorf("allocation %#x not size-aligned", p)
	}
	// Interior pointers resolve to the object base.
	for off := uint64(1); off < 112; off += 13 {
		if Base(p+off) != p {
			t.Errorf("Base(%#x+%d) = %#x", p, off, Base(p+off))
		}
	}
	// Memory is mapped and writable.
	m := a.mem
	if err := m.Store(p, 8, 0xFEED); err != nil {
		t.Fatalf("allocated memory not writable: %v", err)
	}
}

func TestAllocDistinctRegions(t *testing.T) {
	a := New(mem.New())
	p16, _ := a.Alloc(16)
	p32, _ := a.Alloc(32)
	p1k, _ := a.Alloc(1024)
	p4k, _ := a.Alloc(4000)
	if RegionIndex(p16) != 1 || RegionIndex(p32) != 2 || RegionIndex(p1k) != 64 {
		t.Errorf("regions: %d %d %d", RegionIndex(p16), RegionIndex(p32), RegionIndex(p1k))
	}
	if RegionIndex(p4k) != NumLinear+2 { // 4 KB class
		t.Errorf("4000-byte alloc in region %d", RegionIndex(p4k))
	}
}

func TestFreeAndReuse(t *testing.T) {
	a := New(mem.New())
	p1, _ := a.Alloc(64)
	if err := a.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := a.Alloc(64)
	if p1 != p2 {
		t.Errorf("LIFO reuse expected: %#x vs %#x", p1, p2)
	}
	if err := a.Free(p2); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(p2); err == nil {
		t.Error("double free not detected")
	}
	if err := a.Free(p2 + 8); err == nil {
		t.Error("free of interior pointer not detected")
	}
	if err := a.Free(0xdead0000); err == nil {
		t.Error("free of wild pointer not detected")
	}
}

func TestLegacyFallback(t *testing.T) {
	a := New(mem.New())
	p, err := a.Alloc(MaxClassSize + 1)
	if err != nil {
		t.Fatal(err)
	}
	if IsLowFat(p) {
		t.Error("oversized allocation placed in low-fat region")
	}
	if RegionIndex(p) != LegacyRegionIndex {
		t.Errorf("legacy alloc in region %d", RegionIndex(p))
	}
	if Size(p) != SizeMax || Base(p) != 0 {
		t.Error("legacy pointer should be non-fat")
	}
	if a.Stats().LegacyAlloc != 1 {
		t.Errorf("LegacyAlloc = %d", a.Stats().LegacyAlloc)
	}
	if err := a.Free(p); err != nil {
		t.Fatal(err)
	}
}

func TestStats(t *testing.T) {
	a := New(mem.New())
	p1, _ := a.Alloc(10) // class 1, slot 16
	p2, _ := a.Alloc(20) // class 2, slot 32
	s := a.Stats()
	if s.Allocs != 2 || s.BytesInUse != 48 || s.PeakInUse != 48 {
		t.Errorf("stats = %+v", s)
	}
	a.Free(p1)
	s = a.Stats()
	if s.Frees != 1 || s.BytesInUse != 32 {
		t.Errorf("stats after free = %+v", s)
	}
	if s.PeakInUse != 48 {
		t.Errorf("peak lost: %+v", s)
	}
	a.Free(p2)
	if a.LiveCount() != 0 {
		t.Errorf("LiveCount = %d", a.LiveCount())
	}
}

func TestUsableRequestedSize(t *testing.T) {
	a := New(mem.New())
	p, _ := a.Alloc(100)
	if u, ok := a.UsableSize(p); !ok || u != 112 {
		t.Errorf("UsableSize = %d, %v", u, ok)
	}
	if r, ok := a.RequestedSize(p); !ok || r != 100 {
		t.Errorf("RequestedSize = %d, %v", r, ok)
	}
	a.Free(p)
	if _, ok := a.UsableSize(p); ok {
		t.Error("UsableSize on freed pointer succeeded")
	}
}

// Property: Base/Size algebra (paper §2.1). For any low-fat allocation p
// and any offset within the slot: Base(p+off) == p, Size(p+off) == slot,
// Base is idempotent, and Base(p) is size-aligned.
func TestQuickBaseSizeAlgebra(t *testing.T) {
	a := New(mem.New())
	r := rand.New(rand.NewSource(5))
	f := func() bool {
		req := uint64(1 + r.Intn(100000))
		p, err := a.Alloc(req)
		if err != nil {
			t.Fatal(err)
		}
		if !IsLowFat(p) {
			return false
		}
		slot := Size(p)
		if slot < req {
			return false
		}
		off := uint64(r.Int63n(int64(slot)))
		q := p + off
		if Base(q) != p || Size(q) != slot {
			return false
		}
		if Base(Base(q)) != Base(q) { // idempotent
			return false
		}
		return p%slot == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// TestBaseMatchesDivide pins Base, which divides by a per-class
// reciprocal, to the divide it replaces, ptr − ptr mod size: at each
// class's region start and end, at slot boundaries ±1 near both ends,
// and on 10^5 random pointers per class. mod is also checked on random
// 64-bit values and at both ends of the uint64 range.
func TestBaseMatchesDivide(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for c := 1; c <= NumClasses; c++ {
		size := ClassSize(c)
		lo, hi := uint64(c)<<RegionShift, uint64(c+1)<<RegionShift-1
		last := hi - hi%size // the region's last slot
		ptrs := []uint64{lo, hi}
		for _, slot := range []uint64{lo, lo + size, lo + 2*size, last - size, last} {
			ptrs = append(ptrs, slot-1, slot, slot+1)
		}
		for i := 0; i < 100000; i++ {
			ptrs = append(ptrs, lo+r.Uint64()%RegionSize)
		}
		for _, p := range ptrs {
			if p < lo || p > hi {
				continue
			}
			if got, want := Base(p), p-p%size; got != want {
				t.Fatalf("class %d: Base(%#x) = %#x, want %#x", c, p, got, want)
			}
		}
		for _, x := range []uint64{0, 1, size - 1, size, ^uint64(0) - 1, ^uint64(0), ^uint64(0) - ^uint64(0)%size} {
			if got := mod(x, size, magics[c]); got != x%size {
				t.Fatalf("class %d: mod(%#x) = %d, want %d", c, x, got, x%size)
			}
		}
		for i := 0; i < 100000; i++ {
			x := r.Uint64()
			if got := mod(x, size, magics[c]); got != x%size {
				t.Fatalf("class %d: mod(%#x) = %d, want %d", c, x, got, x%size)
			}
		}
	}
}

// Property: live allocations never overlap.
func TestQuickNoOverlap(t *testing.T) {
	a := New(mem.New())
	r := rand.New(rand.NewSource(9))
	type span struct{ lo, hi uint64 }
	var live []span
	ptrs := map[uint64]uint64{}
	for i := 0; i < 3000; i++ {
		if len(ptrs) > 0 && r.Intn(3) == 0 {
			for p := range ptrs {
				a.Free(p)
				delete(ptrs, p)
				break
			}
			continue
		}
		req := uint64(1 + r.Intn(3000))
		p, err := a.Alloc(req)
		if err != nil {
			t.Fatal(err)
		}
		ptrs[p] = req
		// Check the new span against every live span (the older spans
		// were pairwise-checked when they were new).
		newEnd := p + req
		if IsLowFat(p) {
			newEnd = p + Size(p)
		}
		live = live[:0]
		for q, sz := range ptrs {
			if q == p {
				continue
			}
			end := q + sz
			if IsLowFat(q) {
				end = q + Size(q)
			}
			live = append(live, span{q, end})
		}
		for _, s := range live {
			if p < s.hi && s.lo < newEnd {
				t.Fatalf("overlap: [%#x,%#x) and [%#x,%#x)", p, newEnd, s.lo, s.hi)
			}
		}
	}
}

func TestRandomizedPlacement(t *testing.T) {
	a := New(mem.New())
	a.Randomize = true
	// Build a free list, then check reuse is not strictly LIFO.
	var ps []uint64
	for i := 0; i < 32; i++ {
		p, _ := a.Alloc(48)
		ps = append(ps, p)
	}
	for _, p := range ps {
		a.Free(p)
	}
	reusedInOrder := true
	for i := len(ps) - 1; i >= 0; i-- {
		p, _ := a.Alloc(48)
		if p != ps[i] {
			reusedInOrder = false
		}
	}
	if reusedInOrder {
		t.Error("randomized allocator reused slots in strict LIFO order")
	}
}

func TestHeapBounds(t *testing.T) {
	// Every low-fat class region must lie within [HeapLow, HeapHigh),
	// and the legacy region too — check-elimination depends on it.
	for c := 1; c <= NumClasses; c++ {
		lo := uint64(c) * RegionSize
		if lo < HeapLow || lo+RegionSize > HeapHigh {
			t.Errorf("class %d region outside heap bounds", c)
		}
	}
	legacyLo := uint64(LegacyRegionIndex) * RegionSize
	if legacyLo < HeapLow || legacyLo+RegionSize > HeapHigh {
		t.Error("legacy region outside heap bounds")
	}
}

func BenchmarkAllocFree(b *testing.B) {
	a := New(mem.New())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := a.Alloc(uint64(16 + i%512))
		if err != nil {
			b.Fatal(err)
		}
		a.Free(p)
	}
}

// baseSink keeps BenchmarkBase's result live, so the compiler cannot drop
// the Base calls.
var baseSink uint64

func BenchmarkBase(b *testing.B) {
	a := New(mem.New())
	p, _ := a.Alloc(100)
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += Base(p + uint64(i%100))
	}
	baseSink = sink
}

// TestLegacyHugeFails: an oversized request near 2^64 fails with an
// error. Page rounding used to wrap such a size to no pages at all and
// return an unmapped pointer.
func TestLegacyHugeFails(t *testing.T) {
	a := New(mem.New())
	for _, size := range []uint64{^uint64(0) - 100, ^uint64(0), RegionSize + 1} {
		if p, err := a.Alloc(size); err == nil {
			t.Errorf("Alloc(%#x) = %#x, want an error", size, p)
		}
	}
	if a.Stats().Allocs != 0 {
		t.Errorf("Allocs = %d after failed requests", a.Stats().Allocs)
	}
}
