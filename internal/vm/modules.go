package vm

import (
	"fmt"

	"redfat/internal/mem"
	"redfat/internal/relf"
)

// Dynamic linking support (paper §7.4): RELF shared objects can be loaded
// alongside the main executable, and each module — executable or library —
// can be instrumented by RedFat *separately*. Only explicitly instrumented
// modules enjoy protection at runtime, exactly the property the paper
// describes for main programs vs library dependencies.
//
// Cross-module calls work through the import mechanism: an import that no
// host binding satisfies is resolved against the exported function symbols
// of previously loaded libraries, and the RTCALL becomes a guest-to-guest
// call (the PLT model).

// moduleEntry records one loaded module's address range and bindings.
type moduleEntry struct {
	lo, hi uint64
	host   []HostFunc
	bin    *relf.Binary
}

// GuestFunc returns a host function that transfers control to guest code
// at addr, exactly like a resolved PLT entry: the return address is the
// instruction after the RTCALL, and the callee's RET resumes there.
func (v *VM) GuestFunc(addr uint64) HostFunc {
	return func(v *VM, _ uint32) error {
		v.Cycles += CostCall
		if err := v.push(v.RIP); err != nil {
			return err
		}
		v.branchTo(addr)
		return nil
	}
}

// mapSections maps a binary's sections into memory. Section bytes become
// the backing of their pages (mem.Back), filled on first touch, so they
// must not change while a run loaded from the binary is live.
func (v *VM) mapSections(bin *relf.Binary) error {
	if err := bin.CheckOverlaps(); err != nil {
		return err
	}
	for _, s := range bin.Sections {
		if s.Kind == relf.SecMeta || s.Size == 0 {
			continue
		}
		perm := mem.PermRead
		if s.Write {
			perm |= mem.PermWrite
		}
		if s.Exec {
			perm |= mem.PermExec
		}
		v.Mem.Map(s.Addr, s.Size, perm)
		if len(s.Data) > 0 {
			v.Mem.Protect(s.Addr, s.Size, perm|mem.PermWrite)
			if err := v.Mem.Back(s.Addr, s.Data); err != nil {
				return fmt.Errorf("vm: loading %q: %w", s.Name, err)
			}
			v.Mem.Protect(s.Addr, s.Size, perm)
		}
	}
	return nil
}

// bindImports resolves a module's import table against host bindings
// first, then against guest exports of already-loaded libraries.
func (v *VM) bindImports(bin *relf.Binary, env Bindings) ([]HostFunc, error) {
	funcs := make([]HostFunc, len(bin.Imports))
	for i, name := range bin.Imports {
		if fn, ok := env[name]; ok {
			funcs[i] = fn
			continue
		}
		if addr, ok := v.exports[name]; ok {
			funcs[i] = v.GuestFunc(addr)
			continue
		}
		return nil, fmt.Errorf("vm: unresolved import %q", name)
	}
	return funcs, nil
}

// registerModule records a module's range and merges its patch table.
func (v *VM) registerModule(bin *relf.Binary, host []HostFunc) error {
	lo := ^uint64(0)
	var hi uint64
	for _, s := range bin.Sections {
		if s.Kind == relf.SecMeta {
			continue
		}
		if s.Addr < lo {
			lo = s.Addr
		}
		if s.End() > hi {
			hi = s.End()
		}
	}
	v.modules = append(v.modules, moduleEntry{lo: lo, hi: hi, host: host, bin: bin})
	v.modCache = nil
	if ps := bin.Section(relf.PatchTableSection); ps != nil {
		pt, err := relf.DecodePatchTable(ps.Data)
		if err != nil {
			return err
		}
		if v.PatchTable == nil {
			v.PatchTable = make(map[uint64]uint64, len(pt))
		}
		for from, to := range pt {
			v.PatchTable[from] = to
		}
	}
	return nil
}

// LoadLibrary maps a RELF shared object and registers its exported
// function symbols for subsequent import resolution. Libraries must be
// placed (rebased) at non-conflicting addresses *before* being hardened,
// so that instrumentation metadata needs no relocation — mirroring how
// RedFat instruments a DSO on disk for its load address.
func (v *VM) LoadLibrary(bin *relf.Binary, env Bindings) error {
	if err := v.mapSections(bin); err != nil {
		return err
	}
	host, err := v.bindImports(bin, env)
	if err != nil {
		return err
	}
	if err := v.registerModule(bin, host); err != nil {
		return err
	}
	if v.exports == nil {
		v.exports = make(map[string]uint64)
	}
	for _, s := range bin.Symbols {
		if s.Func {
			v.exports[s.Name] = s.Addr
		}
	}
	return nil
}

// ModuleBinary returns the binary of the module containing pc, falling
// back to the main executable. The runtime layer uses it to resolve
// which site table an RTCALL at pc indexes when building JIT check
// plans (per-DSO import tables, like moduleFor for bindings).
func (v *VM) ModuleBinary(pc uint64) *relf.Binary {
	for i := range v.modules {
		m := &v.modules[i]
		if pc >= m.lo && pc < m.hi {
			return m.bin
		}
	}
	return v.binary
}

// moduleFor returns the bindings of the module containing pc, falling
// back to the main executable's bindings.
func (v *VM) moduleFor(pc uint64) []HostFunc {
	if m := v.modCache; m != nil && pc >= m.lo && pc < m.hi {
		return m.host
	}
	for i := range v.modules {
		m := &v.modules[i]
		if pc >= m.lo && pc < m.hi {
			v.modCache = m
			return m.host
		}
	}
	return v.hostFuncs
}
