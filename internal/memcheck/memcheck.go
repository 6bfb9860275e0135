// Package memcheck models Valgrind Memcheck: the heavyweight
// dynamic-binary-instrumentation comparator the paper evaluates against
// (§7.1, Table 1; §7.2, Table 2).
//
// Memcheck differs from RedFat in every axis the paper contrasts:
//
//   - it interprets the *unmodified* binary under a DBI engine, paying a
//     JIT-translation cost per basic block plus dispatch overhead on every
//     instruction (modelled with the VM's BlockHook / PerInstOverhead);
//   - protection is redzone-only: it interposes on malloc, pads each
//     allocation with 16-byte redzones, tracks addressability in shadow
//     memory, and checks every access against the shadow — so it detects
//     incremental overflows and use-after-free, but non-incremental
//     overflows that skip the redzone into another valid object are
//     invisible to it (paper Problem #1);
//   - it runs with --leak-check=no --undef-value-errors=no equivalents,
//     i.e. only addressability checking, matching the paper's setup.
package memcheck

import (
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/shadow"
	"redfat/internal/vm"
)

// RedzoneSize is Memcheck's default redzone padding (16 bytes).
const RedzoneSize = 16

// DBI cost model (cycles). Valgrind's core overhead comes from running
// translated code with dispatch and shadow bookkeeping: the paper measures
// 11.76× on SPEC with checking enabled.
const (
	costTranslateBlock = 150 // first visit: disassemble + translate
	costBlockDispatch  = 10  // per block entry: translation-cache lookup
	costPerInst        = 4   // per guest instruction under the JIT
	costShadowCheck    = 18  // per memory access: shadow lookup + classify
)

// Wrapper interposes Memcheck's redzone allocator over the baseline heap.
type Wrapper struct {
	H      *heap.Heap
	Shadow *shadow.Map
	// live maps user pointer → requested size (for free/realloc).
	live map[uint64]uint64
}

// NewWrapper builds the allocator wrapper.
func NewWrapper(h *heap.Heap) *Wrapper {
	return &Wrapper{H: h, Shadow: shadow.New(), live: make(map[uint64]uint64)}
}

// The forensic noter/tracker interfaces forward to the underlying heap,
// so allocation-site records work under the Memcheck model too.

// NoteAllocPC forwards the guest call site to the underlying heap.
func (w *Wrapper) NoteAllocPC(pc uint64) { w.H.NoteAllocPC(pc) }

// NoteAllocStack forwards the guest backtrace to the underlying heap.
func (w *Wrapper) NoteAllocStack(stack []uint64) { w.H.NoteAllocStack(stack) }

// SiteStackDepth reports the underlying heap's capture depth.
func (w *Wrapper) SiteStackDepth() int { return w.H.SiteStackDepth() }

// EnableSiteTracking turns on forensic records in the underlying heap.
func (w *Wrapper) EnableSiteTracking(depth int) { w.H.EnableSiteTracking(depth) }

// Malloc allocates with redzones on both sides and poisons them.
func (w *Wrapper) Malloc(size uint64) (uint64, error) {
	raw, err := w.H.Malloc(size + 2*RedzoneSize)
	if err != nil {
		return 0, err
	}
	ptr := raw + RedzoneSize
	w.Shadow.Poison(raw, RedzoneSize, shadow.HeapRedzone)
	w.Shadow.Unpoison(ptr, size)
	w.Shadow.Poison(ptr+size, RedzoneSize, shadow.HeapRedzone)
	w.live[ptr] = size
	return ptr, nil
}

// Calloc allocates zeroed memory with redzones.
func (w *Wrapper) Calloc(n, size uint64) (uint64, error) {
	total := n * size
	if size != 0 && total/size != n {
		return 0, errOverflow
	}
	p, err := w.Malloc(total)
	if err != nil {
		return 0, err
	}
	if err := w.H.Mem.Memset(p, 0, total); err != nil {
		return 0, err
	}
	return p, nil
}

// Free poisons the freed object (use-after-free detection) and returns
// the chunk to the underlying heap.
func (w *Wrapper) Free(ptr uint64) error {
	if ptr == 0 {
		return nil
	}
	size, ok := w.live[ptr]
	if !ok {
		return errInvalidFree
	}
	delete(w.live, ptr)
	w.Shadow.Poison(ptr, size, shadow.FreedMemory)
	return w.H.Free(ptr - RedzoneSize)
}

// Realloc resizes with redzone maintenance.
func (w *Wrapper) Realloc(ptr, size uint64) (uint64, error) {
	if ptr == 0 {
		return w.Malloc(size)
	}
	old, ok := w.live[ptr]
	if !ok {
		return 0, errInvalidFree
	}
	np, err := w.Malloc(size)
	if err != nil {
		return 0, err
	}
	n := old
	if size < n {
		n = size
	}
	if err := w.H.Mem.Memcpy(np, ptr, n); err != nil {
		return 0, err
	}
	return np, w.Free(ptr)
}

type constError string

func (e constError) Error() string { return string(e) }

const (
	errOverflow    = constError("memcheck: calloc overflow")
	errInvalidFree = constError("memcheck: invalid free")
)

// budget is Memcheck's default cycle budget: runs take ~10× longer than
// native.
const budget = 20_000_000_000

// Run executes bin under the Memcheck model: the shared run set-up with
// the redzone wrapper over the baseline heap and the DBI hooks installed.
func Run(bin *relf.Binary, cfg rtlib.RunConfig) (*vm.VM, error) {
	p := rtlib.NewProcess(cfg, budget, bin)
	w := NewWrapper(p.GlibcHeap())
	libc := p.LibC(w, func(env vm.Bindings) vm.Bindings { return interpose(env, w) })

	// DBI overheads.
	v := p.VM
	v.PerInstOverhead = costPerInst
	seen := make(map[uint64]bool)
	v.BlockHook = func(v *vm.VM, addr uint64) {
		if !seen[addr] {
			seen[addr] = true
			v.Cycles += costTranslateBlock
		}
		v.Cycles += costBlockDispatch
	}
	v.MemHook = func(v *vm.VM, addr uint64, size uint16, write bool) error {
		v.Cycles += costShadowCheck
		return checkAccess(v, w, addr, uint64(size), write)
	}
	return v, p.Exec(w, func(*relf.Binary) (vm.Bindings, error) { return libc, nil }, bin)
}

// interpose checks libc-style bulk operations too (Valgrind intercepts
// them): the mem* span operations get shadow checks. The NoLibcCheck knob
// skips it, modelling a run without the replacement library. String
// functions are deliberately not wrapped — Memcheck's str* interceptors
// only handle overlap, so OOB through str* stays a modelled miss (Table 2
// contrast with the hardened span intrinsics).
func interpose(env vm.Bindings, w *Wrapper) vm.Bindings {
	baseMemset, baseMemcpy := env["memset"], env["memcpy"]
	baseMemmove, baseMemcmp := env["memmove"], env["memcmp"]
	env["memset"] = func(v *vm.VM, arg uint32) error {
		if err := checkRange(v, w, v.Regs[isa.RDI], v.Regs[isa.RDX], true); err != nil {
			return err
		}
		return baseMemset(v, arg)
	}
	env["memcpy"] = func(v *vm.VM, arg uint32) error {
		if err := checkRange(v, w, v.Regs[isa.RSI], v.Regs[isa.RDX], false); err != nil {
			return err
		}
		if err := checkRange(v, w, v.Regs[isa.RDI], v.Regs[isa.RDX], true); err != nil {
			return err
		}
		return baseMemcpy(v, arg)
	}
	env["memmove"] = func(v *vm.VM, arg uint32) error {
		if err := checkRange(v, w, v.Regs[isa.RSI], v.Regs[isa.RDX], false); err != nil {
			return err
		}
		if err := checkRange(v, w, v.Regs[isa.RDI], v.Regs[isa.RDX], true); err != nil {
			return err
		}
		return baseMemmove(v, arg)
	}
	env["memcmp"] = func(v *vm.VM, arg uint32) error {
		if err := checkRange(v, w, v.Regs[isa.RDI], v.Regs[isa.RDX], false); err != nil {
			return err
		}
		if err := checkRange(v, w, v.Regs[isa.RSI], v.Regs[isa.RDX], false); err != nil {
			return err
		}
		return baseMemcmp(v, arg)
	}
	return env
}

func checkAccess(v *vm.VM, w *Wrapper, addr, size uint64, write bool) error {
	tag, bad := w.Shadow.Check(addr, size)
	if !bad {
		return nil
	}
	kind := vm.ErrOOBRead
	if write {
		kind = vm.ErrOOBWrite
	}
	if tag == shadow.FreedMemory {
		kind = vm.ErrUseAfterFree
	}
	return v.Report(vm.MemError{Kind: kind, Addr: addr, PC: v.RIP})
}

func checkRange(v *vm.VM, w *Wrapper, addr, size uint64, write bool) error {
	if size == 0 {
		return nil
	}
	return checkAccess(v, w, addr, size, write)
}
