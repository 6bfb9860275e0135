package rtlib

// Fused check plans for the VM's superblock tier.
//
// The interpreter reaches a check through the RTCALL binding (Bindings →
// handle, which indexes the site's plan). The superblock compiler instead
// asks VM.InlineCheck for a plan of the site so the check can stay
// on-trace as a fused closure: MaxCost feeds the trace's worst-case
// budget guard and Exec is the site's compiled check itself, the method
// handle calls, so a fused check runs the full Fig. 4 check exactly as
// the trampoline path does. Guest cycle accounting and verdicts are
// bit-identical; only host-side dispatch differs.

import (
	"redfat/internal/relf"
	"redfat/internal/vm"
)

// jitPlan builds the fusable plan for one site.
func (rt *Runtime) jitPlan(arg uint32) *vm.JITCheck {
	cf := rt.plan(arg)
	p := &vm.JITCheck{Exec: cf.check}
	for _, cost := range cf.costs {
		if cost > p.MaxCost {
			p.MaxCost = cost
		}
	}
	return p
}

// installInlineChecks points v.InlineCheck at the module→runtime binding
// so the superblock tier can fuse instrumented checks; mods may still be
// filling up while the modules load. An RTCALL resolves to a plan only
// when its pc falls in an instrumented module, the import slot is the
// check binding, and the argument is a valid site index; anything else
// (allocator calls, corrupt site indices) returns nil and the trace ends
// there, leaving the interpreter to raise exactly the error it would
// have raised anyway.
func installInlineChecks(v *vm.VM, mods map[*relf.Binary]*Runtime) {
	v.InlineCheck = func(v *vm.VM, pc uint64, importIdx int, arg uint32) *vm.JITCheck {
		bin := v.ModuleBinary(pc)
		if bin == nil {
			return nil
		}
		rt := mods[bin]
		if rt == nil {
			return nil
		}
		if importIdx < 0 || importIdx >= len(bin.Imports) || bin.Imports[importIdx] != CheckImport {
			return nil
		}
		if int(arg) >= len(rt.Checks) {
			return nil
		}
		return rt.jitPlan(arg)
	}
}
