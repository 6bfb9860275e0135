// Package rtlib implements the runtime libraries that RF64 programs call
// through RTCALL:
//
//   - a modelled libc (malloc/free/memset/memcpy/string and simple I/O),
//     bound to either the baseline glibc-style allocator or the RedFat
//     redzone/low-fat allocator — the simulation of LD_PRELOAD
//     interposition (paper §2.1);
//   - libredfat: the instrumented memory-error checks of paper Fig. 4 in
//     all their variants, with an explicit cycle-cost model (cost.go).
package rtlib

import (
	"encoding/binary"
	"errors"
	"fmt"

	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/obs"
	"redfat/internal/redzone"
	"redfat/internal/vm"
)

// Allocator is the malloc-family interface; both the baseline heap
// (internal/heap) and the RedFat heap (internal/redzone) satisfy it.
type Allocator interface {
	Malloc(size uint64) (uint64, error)
	Calloc(n, size uint64) (uint64, error)
	Free(ptr uint64) error
	Realloc(ptr, size uint64) (uint64, error)
}

// Cycle costs of modelled library calls. A call's cost approximates the
// instruction count of a real implementation; size-dependent costs scale
// with the bytes touched.
const (
	costMallocCall = 80
	costFreeCall   = 50
	costPerByte8   = 1 // per 8 bytes for memset/memcpy-style loops
	costIOCall     = 30
)

// pcNoter is implemented by allocators that record guest allocation
// sites for diagnostics (both heaps).
type pcNoter interface{ NoteAllocPC(pc uint64) }

// stackNoter is additionally implemented by allocators that want a guest
// backtrace per allocator call when forensics is enabled. SiteStackDepth
// returns 0 when capture is off, so the frame walk is skipped entirely.
type stackNoter interface {
	NoteAllocStack(stack []uint64)
	SiteStackDepth() int
}

// LibC builds the libc bindings over the given allocator and memory.
// The same function serves baseline and hardened runs; only the allocator
// differs, exactly as with LD_PRELOAD.
func LibC(a Allocator, m *mem.Memory) vm.Bindings {
	b := vm.Bindings{}
	notePC := func(v *vm.VM) {
		if n, ok := a.(pcNoter); ok {
			n.NoteAllocPC(v.RIP)
		}
		if n, ok := a.(stackNoter); ok {
			if depth := n.SiteStackDepth(); depth > 0 {
				n.NoteAllocStack(v.Backtrace(depth))
			}
		}
	}

	b["malloc"] = func(v *vm.VM, _ uint32) error {
		notePC(v)
		v.Cycles += costMallocCall
		p, err := a.Malloc(v.Regs[isa.RDI])
		if err != nil {
			// Out-of-memory returns NULL; allocator-integrity errors
			// (invalid free etc.) do not arise in malloc.
			v.Regs[isa.RAX] = 0
			return nil
		}
		v.Flight.RecordExec(obs.EvAlloc, 0, v.RIP, p, v.Regs[isa.RDI])
		v.Regs[isa.RAX] = p
		return nil
	}
	b["calloc"] = func(v *vm.VM, _ uint32) error {
		notePC(v)
		n, size := v.Regs[isa.RDI], v.Regs[isa.RSI]
		total := n * size
		if size != 0 && total/size != n {
			// n*size wrapped: glibc returns NULL without allocating, and
			// neither the cycle cost nor the alloc event may use the wrapped
			// product (a huge request must not be billed as a tiny one).
			v.Cycles += costMallocCall
			v.Regs[isa.RAX] = 0
			return nil
		}
		v.Cycles += costMallocCall + total/8*costPerByte8
		p, err := a.Calloc(n, size)
		if err != nil {
			v.Regs[isa.RAX] = 0
			return nil
		}
		v.Flight.RecordExec(obs.EvAlloc, 0, v.RIP, p, total)
		v.Regs[isa.RAX] = p
		return nil
	}
	b["free"] = func(v *vm.VM, _ uint32) error {
		notePC(v)
		v.Cycles += costFreeCall
		v.Flight.RecordExec(obs.EvFree, 0, v.RIP, v.Regs[isa.RDI], 0)
		if err := a.Free(v.Regs[isa.RDI]); err != nil {
			var ce *redzone.CanaryError
			if errors.As(err, &ce) {
				// The free completed; the canary verification found the
				// slack overwritten — corrupted metadata, at the smash.
				return v.Report(vm.MemError{
					Kind:      vm.ErrCorruptMeta,
					Addr:      ce.Addr,
					PC:        v.RIP,
					Component: "redzone",
					Note:      err.Error(),
				})
			}
			return v.Report(vm.MemError{
				Kind: vm.ErrInvalidFree,
				Addr: v.Regs[isa.RDI],
				PC:   v.RIP,
				Note: err.Error(),
			})
		}
		return nil
	}
	b["realloc"] = func(v *vm.VM, _ uint32) error {
		notePC(v)
		ptr, size := v.Regs[isa.RDI], v.Regs[isa.RSI]
		v.Cycles += costMallocCall + size/8*costPerByte8
		p, err := a.Realloc(ptr, size)
		var ce *redzone.CanaryError
		if err == nil || errors.As(err, &ce) {
			// Every allocator allocates a moved object's new block
			// before it frees the old one.
			if p != 0 && p != ptr {
				v.Flight.RecordExec(obs.EvAlloc, 0, v.RIP, p, size)
			}
			if ptr != 0 && p != ptr {
				v.Flight.RecordExec(obs.EvFree, 0, v.RIP, ptr, 0)
			}
		}
		if err != nil {
			if ce != nil {
				// The resize itself succeeded; report the smash found
				// while freeing the old object.
				v.Regs[isa.RAX] = p
				return v.Report(vm.MemError{
					Kind:      vm.ErrCorruptMeta,
					Addr:      ce.Addr,
					PC:        v.RIP,
					Component: "redzone",
					Note:      err.Error(),
				})
			}
			v.Regs[isa.RAX] = 0
			return v.Report(vm.MemError{
				Kind: vm.ErrInvalidFree, Addr: ptr, PC: v.RIP, Note: err.Error(),
			})
		}
		v.Regs[isa.RAX] = p
		return nil
	}

	b["memset"] = func(v *vm.VM, _ uint32) error {
		dst, c, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		v.Cycles += 20 + n/8*costPerByte8
		if err := m.Memset(dst, byte(c), n); err != nil {
			return err
		}
		v.Regs[isa.RAX] = dst
		return nil
	}
	b["memcpy"] = func(v *vm.VM, _ uint32) error {
		dst, src, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		v.Cycles += 20 + n/8*costPerByte8
		if err := m.Memcpy(dst, src, n); err != nil {
			return err
		}
		v.Regs[isa.RAX] = dst
		return nil
	}
	b["memmove"] = func(v *vm.VM, _ uint32) error {
		dst, src, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		v.Cycles += 20 + n/8*costPerByte8
		if err := memmoveBytes(m, dst, src, n); err != nil {
			return err
		}
		v.Regs[isa.RAX] = dst
		return nil
	}
	b["memcmp"] = func(v *vm.VM, _ uint32) error {
		s1, s2, n := v.Regs[isa.RDI], v.Regs[isa.RSI], v.Regs[isa.RDX]
		compared, res, err := memcmpBytes(m, s1, s2, n)
		v.Cycles += 20 + compared/8*costPerByte8
		if err != nil {
			return err
		}
		v.Regs[isa.RAX] = uint64(res)
		return nil
	}
	b["strlen"] = func(v *vm.VM, _ uint32) error {
		s := v.Regs[isa.RDI]
		var n uint64
		for {
			c, err := m.Load(s+n, 1)
			if err != nil {
				return err
			}
			if c == 0 {
				break
			}
			n++
			if n > 1<<24 {
				return fmt.Errorf("rtlib: unterminated string at %#x", s)
			}
		}
		v.Cycles += 10 + n
		v.Regs[isa.RAX] = n
		return nil
	}
	b["strcpy"] = func(v *vm.VM, _ uint32) error {
		dst, src := v.Regs[isa.RDI], v.Regs[isa.RSI]
		n, err := strlenAt(m, src, strMax)
		if err != nil {
			return err
		}
		v.Cycles += 10 + n
		if err := memmoveBytes(m, dst, src, n+1); err != nil {
			return err
		}
		v.Regs[isa.RAX] = dst
		return nil
	}
	b["strcat"] = func(v *vm.VM, _ uint32) error {
		dst, src := v.Regs[isa.RDI], v.Regs[isa.RSI]
		dlen, err := strlenAt(m, dst, strMax)
		if err != nil {
			return err
		}
		slen, err := strlenAt(m, src, strMax)
		if err != nil {
			return err
		}
		v.Cycles += 10 + dlen + slen
		if err := memmoveBytes(m, dst+dlen, src, slen+1); err != nil {
			return err
		}
		v.Regs[isa.RAX] = dst
		return nil
	}
	b["strcmp"] = func(v *vm.VM, _ uint32) error {
		s1, s2 := v.Regs[isa.RDI], v.Regs[isa.RSI]
		compared, res, err := strcmpBytes(m, s1, s2)
		v.Cycles += 10 + compared
		if err != nil {
			return err
		}
		v.Regs[isa.RAX] = uint64(res)
		return nil
	}

	b["exit"] = func(v *vm.VM, _ uint32) error {
		v.Halted = true
		v.ExitCode = v.Regs[isa.RDI]
		return nil
	}
	b["abort"] = func(v *vm.VM, _ uint32) error {
		v.Halted = true
		v.ExitCode = 134 // SIGABRT-style
		return nil
	}

	// rf_input pops the next value from the VM's input vector (models
	// reading attacker-controlled or workload input).
	b["rf_input"] = func(v *vm.VM, _ uint32) error {
		v.Cycles += costIOCall
		v.Regs[isa.RAX] = v.NextInput()
		return nil
	}
	// rf_output appends RDI to the VM's captured output.
	b["rf_output"] = func(v *vm.VM, _ uint32) error {
		v.Cycles += costIOCall
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v.Regs[isa.RDI])
		v.Output = append(v.Output, buf[:]...)
		return nil
	}
	// print_str writes the NUL-terminated string at RDI to the output.
	b["print_str"] = func(v *vm.VM, _ uint32) error {
		v.Cycles += costIOCall
		s, err := m.ReadCString(v.Regs[isa.RDI], 1<<16)
		if err != nil {
			return err
		}
		v.Output = append(v.Output, s...)
		return nil
	}

	// rf_rand is a deterministic xorshift PRNG seeded per-VM; workloads
	// use it for data-dependent but reproducible behaviour.
	b["rf_rand"] = func(v *vm.VM, _ uint32) error {
		v.Cycles += 8
		v.Regs[isa.RAX] = v.NextRand()
		return nil
	}

	return b
}

// strMax bounds every modelled string scan, matching the historical
// strlen limit (an unterminated string is a hard runtime error, not an
// endless walk through the 64-bit address space).
const strMax = 1 << 24

// strlenAt measures the NUL-terminated string at s, scanning page-sized
// spans (one TLB probe each), up to max bytes.
func strlenAt(m *mem.Memory, s uint64, max uint64) (uint64, error) {
	var n uint64
	for n < max {
		span, err := m.LoadSlice(s+n, int(max-n))
		if err != nil {
			return n, err
		}
		for i, b := range span {
			if b == 0 {
				return n + uint64(i), nil
			}
		}
		n += uint64(len(span))
	}
	return n, fmt.Errorf("rtlib: unterminated string at %#x", s)
}

// memmoveBytes copies [src, src+n) to [dst, dst+n) with memmove's
// defined overlap semantics: the destination always receives the
// original source bytes. Disjoint and downward-overlapping copies run
// forward in chunks; an upward-overlapping copy runs backward so no
// source byte is clobbered before it is read.
func memmoveBytes(m *mem.Memory, dst, src, n uint64) error {
	if n == 0 || dst == src {
		return nil
	}
	if dst < src || dst-src >= n {
		return m.Memcpy(dst, src, n)
	}
	var buf [4096]byte
	for n > 0 {
		c := uint64(len(buf))
		if c > n {
			c = n
		}
		n -= c
		if err := m.ReadAt(src+n, buf[:c]); err != nil {
			return err
		}
		if err := m.WriteAt(dst+n, buf[:c]); err != nil {
			return err
		}
	}
	return nil
}

// memcmpBytes compares [s1, s1+n) and [s2, s2+n), returning how many
// bytes were examined (early exit on the first difference, so the cycle
// cost scales with the compared prefix) and the memcmp-style verdict.
func memcmpBytes(m *mem.Memory, s1, s2, n uint64) (compared uint64, res int64, err error) {
	var b1, b2 [4096]byte
	var done uint64
	for done < n {
		c := uint64(len(b1))
		if c > n-done {
			c = n - done
		}
		if err := m.ReadAt(s1+done, b1[:c]); err != nil {
			return done, 0, err
		}
		if err := m.ReadAt(s2+done, b2[:c]); err != nil {
			return done, 0, err
		}
		for i := uint64(0); i < c; i++ {
			if b1[i] != b2[i] {
				if b1[i] < b2[i] {
					return done + i + 1, -1, nil
				}
				return done + i + 1, 1, nil
			}
		}
		done += c
	}
	return n, 0, nil
}

// strcmpBytes compares two NUL-terminated strings byte-wise, returning
// the number of compared positions and the strcmp-style verdict.
func strcmpBytes(m *mem.Memory, s1, s2 uint64) (compared uint64, res int64, err error) {
	for i := uint64(0); i < strMax; i++ {
		c1, err := m.Load(s1+i, 1)
		if err != nil {
			return i, 0, err
		}
		c2, err := m.Load(s2+i, 1)
		if err != nil {
			return i, 0, err
		}
		if c1 != c2 {
			if c1 < c2 {
				return i + 1, -1, nil
			}
			return i + 1, 1, nil
		}
		if c1 == 0 {
			return i + 1, 0, nil
		}
	}
	return strMax, 0, fmt.Errorf("rtlib: unterminated string at %#x", s1)
}

// Merge combines bindings maps (later maps win on conflicts).
func Merge(maps ...vm.Bindings) vm.Bindings {
	out := vm.Bindings{}
	for _, m := range maps {
		for k, v := range m {
			out[k] = v
		}
	}
	return out
}
