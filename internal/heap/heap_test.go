package heap

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"redfat/internal/lowfat"
	"redfat/internal/mem"
)

func TestMallocBasic(t *testing.T) {
	h := New(mem.New())
	p, err := h.Malloc(100)
	if err != nil {
		t.Fatal(err)
	}
	if p%16 != 0 {
		t.Errorf("allocation %#x not 16-aligned", p)
	}
	if p < ArenaBase || p >= ArenaEnd {
		t.Errorf("allocation %#x outside arena", p)
	}
	if lowfat.IsLowFat(p) {
		t.Error("baseline heap produced a low-fat pointer")
	}
	if err := h.Mem.Store(p+92, 8, 1); err != nil {
		t.Errorf("allocated memory unusable: %v", err)
	}
	u, err := h.UsableSize(p)
	if err != nil || u < 100 {
		t.Errorf("UsableSize = %d, %v", u, err)
	}
}

func TestChunkSizes(t *testing.T) {
	cases := []struct{ req, chunk uint64 }{
		{1, 32}, {16, 32}, {17, 48}, {100, 128}, {496, 512},
		{497, 1024}, {1000, 1024}, {1009, 2048}, {100000, 131072},
	}
	for _, c := range cases {
		if got := chunkSize(c.req); got != c.chunk {
			t.Errorf("chunkSize(%d) = %d, want %d", c.req, got, c.chunk)
		}
	}
}

func TestFreeReuse(t *testing.T) {
	h := New(mem.New())
	p1, _ := h.Malloc(64)
	if err := h.Free(p1); err != nil {
		t.Fatal(err)
	}
	p2, _ := h.Malloc(64)
	if p1 != p2 {
		t.Errorf("bin reuse failed: %#x vs %#x", p1, p2)
	}
	if err := h.Free(0); err != nil {
		t.Errorf("free(NULL): %v", err)
	}
	if err := h.Free(0x123); err == nil {
		t.Error("free of wild pointer succeeded")
	}
}

func TestAdjacentChunks(t *testing.T) {
	// Fresh chunks are carved contiguously from the wilderness — this is
	// what makes "skip the redzone into the next object" attacks work
	// against redzone-only tools (paper Example 1).
	h := New(mem.New())
	p1, _ := h.Malloc(16) // 32-byte chunk
	p2, _ := h.Malloc(16)
	if p2-p1 != 32 {
		t.Errorf("chunks not adjacent: %#x, %#x", p1, p2)
	}
	// Overflow from p1 with a large enough offset lands inside p2's data.
	if err := h.Mem.Store(p1+(p2-p1), 8, 0xEE1); err != nil {
		t.Errorf("overflow store into adjacent chunk faulted: %v", err)
	}
}

func TestRealloc(t *testing.T) {
	h := New(mem.New())
	p, _ := h.Malloc(16)
	h.Mem.Store(p, 8, 42)
	q, err := h.Realloc(p, 500)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := h.Mem.Load(q, 8)
	if v != 42 {
		t.Errorf("realloc lost data: %d", v)
	}
	// Shrinking realloc keeps the chunk.
	r, err := h.Realloc(q, 10)
	if err != nil || r != q {
		t.Errorf("shrinking realloc moved: %#x → %#x, %v", q, r, err)
	}
}

func TestCalloc(t *testing.T) {
	h := New(mem.New())
	p, _ := h.Malloc(64)
	h.Mem.Memset(p, 0xFF, 64)
	h.Free(p)
	q, err := h.Calloc(4, 16)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 64; i += 8 {
		if v, _ := h.Mem.Load(q+i, 8); v != 0 {
			t.Fatalf("calloc not zeroed at +%d", i)
		}
	}
}

func TestStressNoOverlap(t *testing.T) {
	h := New(mem.New())
	r := rand.New(rand.NewSource(21))
	live := map[uint64]uint64{}
	for i := 0; i < 5000; i++ {
		if len(live) > 0 && r.Intn(2) == 0 {
			for p := range live {
				if err := h.Free(p); err != nil {
					t.Fatal(err)
				}
				delete(live, p)
				break
			}
			continue
		}
		size := uint64(1 + r.Intn(2000))
		p, err := h.Malloc(size)
		if err != nil {
			t.Fatal(err)
		}
		for q, qsize := range live {
			if p < q+qsize && q < p+size {
				t.Fatalf("overlap: [%#x,+%d) and [%#x,+%d)", p, size, q, qsize)
			}
		}
		live[p] = size
	}
	allocs, frees, errs := h.Stats()
	if allocs == 0 || frees == 0 || errs != 0 {
		t.Errorf("stats: %d %d %d", allocs, frees, errs)
	}
}

// TestMallocHugeFails pins the out-of-memory path: a request the arena
// can never hold fails with an error. Sizes above 2^63 used to wrap
// chunkSize's doubling to 0 and spin forever, so the calls run under a
// bounded wait. The largest request that fits still succeeds.
func TestMallocHugeFails(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		h := New(mem.New())
		for _, size := range []uint64{1<<63 + 1, ^uint64(0), ^uint64(0) - headerSize + 1, ArenaEnd - ArenaBase} {
			if p, err := h.Malloc(size); err == nil {
				done <- fmt.Errorf("Malloc(%#x) = %#x, want an out-of-memory error", size, p)
				return
			}
		}
		if _, err := h.Malloc(ArenaEnd - ArenaBase - headerSize); err != nil {
			done <- fmt.Errorf("Malloc of the whole arena: %v", err)
			return
		}
		done <- nil
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Malloc of a huge size did not return")
	}
}
