package mem

import (
	"math/rand"
	"testing"
)

// TestTLBHitMiss checks the basic hit/miss accounting: repeated access to
// one page hits after the first fill, NoTLB never hits.
func TestTLBHitMiss(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	for i := 0; i < 10; i++ {
		if _, err := m.Load(0x1000+uint64(i*8), 8); err != nil {
			t.Fatal(err)
		}
	}
	st := m.TLB()
	if st.Hits != 9 || st.Misses != 1 {
		t.Errorf("TLB stats = %+v, want 9 hits / 1 miss", st)
	}
	if r := st.HitRate(); r < 0.89 || r > 0.91 {
		t.Errorf("HitRate = %v, want 0.9", r)
	}

	n := New()
	n.NoTLB = true
	n.Map(0x1000, PageSize, PermRW)
	for i := 0; i < 10; i++ {
		if _, err := n.Load(0x1000, 8); err != nil {
			t.Fatal(err)
		}
	}
	if st := n.TLB(); st.Hits != 0 || st.Misses != 10 {
		t.Errorf("NoTLB stats = %+v, want 0 hits / 10 misses", st)
	}
}

// TestTLBWaysSplitPermissions verifies that permission is folded into the
// way: a read-only page fills the read way but never the write way, so a
// store faults even right after a successful load of the same address.
func TestTLBWaysSplitPermissions(t *testing.T) {
	m := New()
	m.Map(0x2000, PageSize, PermRead)
	if _, err := m.Load(0x2000, 8); err != nil {
		t.Fatal(err)
	}
	if err := m.Store(0x2000, 8, 1); err == nil {
		t.Fatal("store to read-only page succeeded after load cached it")
	}
	if n := m.Fetch(0x2000, make([]byte, 4)); n != 0 {
		t.Fatalf("fetch from non-exec page returned %d bytes", n)
	}
	// Upgrade to RWX: every kind must now succeed (Protect invalidated).
	m.Protect(0x2000, PageSize, PermRead|PermWrite|PermExec)
	if err := m.Store(0x2000, 8, 1); err != nil {
		t.Fatalf("store after Protect(rwx): %v", err)
	}
	if n := m.Fetch(0x2000, make([]byte, 4)); n != 4 {
		t.Fatalf("fetch after Protect(rwx) = %d bytes", n)
	}
}

// TestTLBInvalidation exercises the precise-invalidation paths: Protect
// revoking a permission, Unmap dropping a page, and Map replacing a page's
// permissions must all evict stale translations; unrelated entries and
// aliasing slots must be handled correctly.
func TestTLBInvalidation(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	if err := m.Store(0x1000, 8, 42); err != nil {
		t.Fatal(err)
	}
	m.Protect(0x1000, PageSize, PermRead)
	if err := m.Store(0x1000, 8, 1); err == nil {
		t.Fatal("store through stale write translation after Protect")
	}
	if v, err := m.Load(0x1000, 8); err != nil || v != 42 {
		t.Fatalf("load after Protect = %#x, %v", v, err)
	}
	m.Unmap(0x1000, PageSize)
	if _, err := m.Load(0x1000, 8); err == nil {
		t.Fatal("load through stale translation after Unmap")
	}
	// Remap: fresh page (zeroed), and the read way must see the new frame.
	m.Map(0x1000, PageSize, PermRW)
	if v, err := m.Load(0x1000, 8); err != nil || v != 0 {
		t.Fatalf("load after remap = %#x, %v (want fresh zero page)", v, err)
	}

	// Aliasing: two pages TLBSize pages apart share a slot; accessing the
	// second must evict the first cleanly, and invalidating one must not
	// disturb the resident translation of the other.
	a := uint64(0x100000)
	b := a + TLBSize*PageSize
	m.Map(a, PageSize, PermRW)
	m.Map(b, PageSize, PermRW)
	m.Store(a, 8, 0xA)
	m.Store(b, 8, 0xB)
	if v, _ := m.Load(a, 8); v != 0xA {
		t.Fatalf("aliased page a = %#x", v)
	}
	if v, _ := m.Load(b, 8); v != 0xB {
		t.Fatalf("aliased page b = %#x", v)
	}
	m.Unmap(a, PageSize) // must not evict b's translation validity
	if v, err := m.Load(b, 8); err != nil || v != 0xB {
		t.Fatalf("page b after unmapping aliased a = %#x, %v", v, err)
	}
}

// TestTLBLargeRangeFlush covers the full-flush invalidation path (ranges
// spanning at least TLBSize pages).
func TestTLBLargeRangeFlush(t *testing.T) {
	m := New()
	size := uint64((TLBSize + 8) * PageSize)
	m.Map(0x100000, size, PermRW)
	for off := uint64(0); off < size; off += PageSize {
		if err := m.Store(0x100000+off, 8, off); err != nil {
			t.Fatal(err)
		}
	}
	m.Protect(0x100000, size, PermRead) // large range → full flush
	for off := uint64(0); off < size; off += PageSize {
		if err := m.Store(0x100000+off, 8, 1); err == nil {
			t.Fatalf("store at +%#x through stale translation after bulk Protect", off)
		}
	}
}

// TestCrossPageFaultAddress pins the fault semantics of the iterative
// cross-page paths: the reported address is the first inaccessible byte,
// and for stores the accessible prefix is written (as the old per-byte
// recursion left it).
func TestCrossPageFaultAddress(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW) // 0x2000.. unmapped
	addr := uint64(0x2000 - 3)
	_, err := m.Load(addr, 8)
	f, ok := err.(*Fault)
	if !ok || f.Addr != 0x2000 || f.Write {
		t.Fatalf("cross-page load fault = %v, want read fault at 0x2000", err)
	}
	err = m.Store(addr, 8, 0x1122334455667788)
	f, ok = err.(*Fault)
	if !ok || f.Addr != 0x2000 || !f.Write {
		t.Fatalf("cross-page store fault = %v, want write fault at 0x2000", err)
	}
	// The three in-page bytes must have been written (low-order first).
	for i, want := range []uint64{0x88, 0x77, 0x66} {
		if v, _ := m.Load(addr+uint64(i), 1); v != want {
			t.Errorf("partial store byte %d = %#x, want %#x", i, v, want)
		}
	}
}

// TestTLBIdentityRandomOps drives an identical random operation sequence
// against a TLB-enabled and a TLB-disabled Memory and requires identical
// results — the mem-level statement of the repo's bit-identity invariant.
func TestTLBIdentityRandomOps(t *testing.T) {
	run := func(noTLB bool) (vals []uint64, errs []string) {
		m := New()
		m.NoTLB = noTLB
		r := rand.New(rand.NewSource(7))
		record := func(v uint64, err error) {
			vals = append(vals, v)
			if err != nil {
				errs = append(errs, err.Error())
			} else {
				errs = append(errs, "")
			}
		}
		const base, span = 0x10000, 0x40000
		for i := 0; i < 5000; i++ {
			addr := base + uint64(r.Intn(span))
			switch r.Intn(7) {
			case 0:
				m.Map(addr&^uint64(pageMask), uint64(1+r.Intn(4))*PageSize, Perm(1+r.Intn(7)))
				record(0, nil)
			case 1:
				m.Unmap(addr&^uint64(pageMask), uint64(1+r.Intn(4))*PageSize)
				record(0, nil)
			case 2:
				m.Protect(addr&^uint64(pageMask), uint64(1+r.Intn(4))*PageSize, Perm(1+r.Intn(7)))
				record(0, nil)
			case 3:
				w := []uint16{1, 2, 4, 8}[r.Intn(4)]
				v, err := m.Load(addr, w)
				record(v, err)
			case 4:
				w := []uint16{1, 2, 4, 8}[r.Intn(4)]
				record(0, m.Store(addr, w, r.Uint64()))
			case 5:
				buf := make([]byte, r.Intn(3*PageSize))
				record(0, m.ReadAt(addr, buf))
			case 6:
				record(uint64(m.Fetch(addr, make([]byte, 16))), nil)
			}
		}
		return vals, errs
	}
	v1, e1 := run(false)
	v2, e2 := run(true)
	for i := range v1 {
		if v1[i] != v2[i] || e1[i] != e2[i] {
			t.Fatalf("op %d diverged: tlb=(%#x,%q) map=(%#x,%q)", i, v1[i], e1[i], v2[i], e2[i])
		}
	}
}

// TestLoadSlice covers the span accessor: page-bounded, max-bounded,
// aliasing guest memory, and faulting on unreadable pages.
func TestLoadSlice(t *testing.T) {
	m := New()
	m.Map(0x1000, PageSize, PermRW)
	m.WriteAt(0x1ff0, []byte("abcdef"))
	span, err := m.LoadSlice(0x1ff0, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(span) != 16 { // clipped at the page end
		t.Errorf("span len = %d, want 16", len(span))
	}
	if string(span[:6]) != "abcdef" {
		t.Errorf("span = %q", span[:6])
	}
	if span, _ = m.LoadSlice(0x1000, 4); len(span) != 4 {
		t.Errorf("max-bounded span len = %d, want 4", len(span))
	}
	if _, err := m.LoadSlice(0x9000, 8); err == nil {
		t.Error("LoadSlice of unmapped memory succeeded")
	}
	m.Protect(0x1000, PageSize, PermWrite)
	if _, err := m.LoadSlice(0x1000, 8); err == nil {
		t.Error("LoadSlice of write-only memory succeeded")
	}
}

// BenchmarkTLBHit measures the steady-state hit path: loads confined to a
// working set that fits the TLB.
func BenchmarkTLBHit(b *testing.B) {
	m := New()
	m.Map(0x10000, 8*PageSize, PermRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000+uint64(i)%(8*PageSize-8), 8)
	}
	b.ReportMetric(m.TLB().HitRate()*100, "hit-%")
}

// BenchmarkTLBMiss measures the miss path: a page-granular stride over
// more pages than the TLB holds, so every probe misses and refills.
func BenchmarkTLBMiss(b *testing.B) {
	m := New()
	pages := uint64(4 * TLBSize)
	m.Map(0x100000, pages*PageSize, PermRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x100000+(uint64(i)%pages)*PageSize, 8)
	}
	b.ReportMetric(m.TLB().HitRate()*100, "hit-%")
}

// BenchmarkMapLookup is the no-TLB baseline the smoke test guards against.
func BenchmarkMapLookup(b *testing.B) {
	m := New()
	m.NoTLB = true
	m.Map(0x10000, 8*PageSize, PermRW)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Load(0x10000+uint64(i)%(8*PageSize-8), 8)
	}
}

// BenchmarkCrossPage measures the iterative page-straddling load/store
// path (formerly byte-at-a-time recursion).
func BenchmarkCrossPage(b *testing.B) {
	m := New()
	m.Map(0x10000, 2*PageSize, PermRW)
	addr := uint64(0x11000 - 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Store(addr, 8, uint64(i))
		m.Load(addr, 8)
	}
}

// BenchmarkReadCString measures the span-scanning string reader.
func BenchmarkReadCString(b *testing.B) {
	m := New()
	m.Map(0x10000, 2*PageSize, PermRW)
	s := make([]byte, 3000) // crosses one page boundary from 0x10800
	for i := range s {
		s[i] = 'x'
	}
	s[len(s)-1] = 0
	m.WriteAt(0x10800, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.ReadCString(0x10800, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
