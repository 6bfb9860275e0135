package rtlib

import (
	"fmt"

	"redfat/internal/lowfat"
	"redfat/internal/obs"
	"redfat/internal/redzone"
	"redfat/internal/relf"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// SiteStat accumulates per-site check counters (paper Fig. 5, step 1):
// how often the site executed, and the pass/fail verdicts attributed to
// the LowFat (base(ptr)) vs Redzone (base(LB) fallback) component.
type SiteStat struct {
	Execs        uint64
	LowFatFails  uint64 // flagged via the base(ptr) LowFat path
	RedzoneFails uint64 // flagged via the base(LB) redzone fallback
	NonFat       uint64 // executions that early-exited (both paths non-fat)
}

// Fails returns the total number of flagged executions at the site.
func (s SiteStat) Fails() uint64 { return s.LowFatFails + s.RedzoneFails }

// Passes returns the number of executions that ran the check cleanly.
func (s SiteStat) Passes() uint64 { return s.Execs - s.Fails() }

// Runtime is the libredfat runtime instance bound to one hardened binary:
// it holds the site table, the RedFat heap, and the profiling counters.
type Runtime struct {
	Checks []Check
	Heap   *redzone.Heap
	Stats  []SiteStat

	// fast holds the per-site compiled checks, Checks-parallel (the
	// specialization the real RedFat bakes into trampoline code at
	// rewrite time). A site's slot stays nil until the site first
	// executes, so a run pays for the sites it reaches (plan).
	fast []*checkFast

	tel *checkMetrics
}

// checkMetrics holds the check runtime's aggregate registry handles; the
// per-site resolution stays in Stats and is exported on demand.
type checkMetrics struct {
	execs       *telemetry.Counter
	passes      *telemetry.Counter
	lowfatFail  *telemetry.Counter
	redzoneFail *telemetry.Counter
	nonfat      *telemetry.Counter
}

// AttachTelemetry binds the runtime's aggregate check counters to reg
// (nil is a no-op). Check outcomes go to the VM's flight recorder.
func (rt *Runtime) AttachTelemetry(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	rt.tel = &checkMetrics{
		execs:       reg.Counter("check.execs"),
		passes:      reg.Counter("check.pass"),
		lowfatFail:  reg.Counter("check.fail.lowfat"),
		redzoneFail: reg.Counter("check.fail.redzone"),
		nonfat:      reg.Counter("check.nonfat"),
	}
}

// PublishSiteStats exports the per-site pass/fail counters into reg under
// stable names keyed by the site's original instruction address, so
// machine consumers see the same resolution rfvm -stats prints.
func (rt *Runtime) PublishSiteStats(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	for i := range rt.Checks {
		st := rt.Stats[i]
		if st.Execs == 0 {
			continue
		}
		prefix := fmt.Sprintf("site.%#x.", rt.Checks[i].PC)
		reg.Counter(prefix + "execs").Add(st.Execs)
		reg.Counter(prefix + "pass").Add(st.Passes())
		if st.LowFatFails > 0 {
			reg.Counter(prefix + "fail.lowfat").Add(st.LowFatFails)
		}
		if st.RedzoneFails > 0 {
			reg.Counter(prefix + "fail.redzone").Add(st.RedzoneFails)
		}
	}
}

// NewRuntime parses the site table of a hardened binary.
func NewRuntime(bin *relf.Binary, h *redzone.Heap) (*Runtime, error) {
	checks, err := SitesFrom(bin)
	if err != nil {
		return nil, err
	}
	return &Runtime{
		Checks: checks,
		Heap:   h,
		Stats:  make([]SiteStat, len(checks)),
		fast:   make([]*checkFast, len(checks)),
	}, nil
}

// Bindings returns the host binding for the check routine.
func (rt *Runtime) Bindings() vm.Bindings {
	return vm.Bindings{CheckImport: rt.handle}
}

// handle is the RTCALL binding of the check routine, executed when a
// trampoline's RTCALL fires: arg is the site index, and the site's
// compiled check does the work.
func (rt *Runtime) handle(v *vm.VM, arg uint32) error {
	if int(arg) >= len(rt.fast) {
		return &vm.MemError{Kind: vm.ErrCorruptMeta, PC: v.RIP,
			Note: "check with invalid site index"}
	}
	return rt.plan(arg).check(v)
}

// check is the instrumented check of paper Fig. 4 for this site: the one
// check body, run by the RTCALL binding (handle) and held directly by a
// fused superblock step.
func (cf *checkFast) check(v *vm.VM) error {
	rt := cf.rt
	cf.stat.Execs++
	if rt.tel != nil {
		rt.tel.execs.Inc()
	}

	// STEP (1): the access range, rebuilt from the precomputed operand
	// plan (paper §4.1): ptr is the base register, the offset folds the
	// displacement, RIP bias, index*scale and segment base.
	ptr, lb, ub := cf.accessRange(v)

	// STEP (2): the object base. Full/Profile first try base(ptr) — the
	// LowFat component — and fall back to base(LB) — the Redzone
	// component — for non-fat pointers.
	var base uint64
	fat := false
	if cf.tryLowFat {
		base = lowfat.Base(ptr)
		fat = base != 0
	}
	fallbackFat := false
	if base == 0 {
		base = lowfat.Base(lb)
		fallbackFat = base != 0
	}
	v.Cycles += cf.costs[fatIdx(fat, fallbackFat)]
	if base == 0 {
		cf.stat.NonFat++
		if rt.tel != nil {
			rt.tel.nonfat.Inc()
		}
		return nil // non-fat pointer and non-fat access: nothing to check
	}

	// STEP (3): metadata from the redzone header. Low-fat region memory
	// is demand-zero in the real allocator, so a slot never handed out
	// reads SIZE=0 and fails the merged bounds check below; we emulate
	// that for headers on unmapped pages.
	size, err := rt.Heap.Mem.Load(base, 8)
	wild := false
	if err != nil {
		size, wild = 0, true
	}

	// STEP (4): the checks.
	var kind vm.MemErrorKind
	bad := false
	switch {
	case cf.sizeCheck && lowfat.Size(base) != lowfat.SizeMax &&
		size > lowfat.Size(base)-redzone.Size:
		kind, bad = vm.ErrCorruptMeta, true
	case size == 0:
		// Free state is encoded as SIZE=0; the merged bounds check
		// always fails, i.e. a use-after-free (or a wild pointer into
		// an unallocated slot, which reads as zero).
		kind, bad = vm.ErrUseAfterFree, true
		if wild {
			kind = cf.oobKind
		}
	case lb < base+redzone.Size || ub > base+redzone.Size+size:
		kind, bad = cf.oobKind, true
	}

	return cf.verdict(v, kind, bad, fat, base, size, lb)
}

// verdict accounts one check outcome of the site — per-site stats,
// telemetry, the flight event — and reports a failure unless the site
// only profiles. A violation found via base(ptr) (fat) is the LowFat
// component's, one found via the fallback base(LB) is the redzone
// component's. The split feeds both the allow-list (only LowFat
// failures disqualify a site) and the exported site stats.
func (cf *checkFast) verdict(v *vm.VM, kind vm.MemErrorKind, bad, fat bool, base, size, lb uint64) error {
	rt := cf.rt
	c := &rt.Checks[cf.site]
	if !bad {
		if rt.tel != nil {
			rt.tel.passes.Inc()
		}
		v.Flight.RecordExec(obs.EvCheckPass, 0, c.PC, lb, 0)
		return nil
	}
	component := "redzone"
	if fat {
		component = "lowfat"
		cf.stat.LowFatFails++
		if rt.tel != nil {
			rt.tel.lowfatFail.Inc()
		}
	} else {
		cf.stat.RedzoneFails++
		if rt.tel != nil {
			rt.tel.redzoneFail.Inc()
		}
	}
	if cf.profile {
		// Profiling counts the failure and never reports it, so the
		// failure event is recorded here instead of by Report.
		v.Flight.RecordExec(obs.EvCheckFail, uint8(kind), c.PC, lb, 0)
		return nil
	}
	return v.Report(vm.MemError{
		Kind:      kind,
		Addr:      lb,
		PC:        c.PC,
		Site:      cf.site,
		Component: component,
		Note:      rt.describe(c, base, size, lb),
	})
}

// describe builds an ASAN-style diagnostic line for a detected error,
// using the allocation-site bookkeeping of the RedFat heap.
func (rt *Runtime) describe(c *Check, base, size, lb uint64) string {
	desc := fmt.Sprintf("%s check at operand %s", c.Mode, c.Operand.String())
	id, err := rt.Heap.Mem.Load(base+8, 8)
	if err != nil {
		return desc
	}
	allocPC, objSize, freePC, ok := rt.Heap.SiteOf(id)
	if !ok {
		return desc
	}
	tag := ""
	if rt.Heap.UnderAllocated(id) {
		tag = " (self-test under-allocation)"
	}
	if size == 0 && freePC != 0 {
		return fmt.Sprintf("%s; object (%d bytes, allocated at %#x) freed at %#x%s",
			desc, objSize, allocPC, freePC, tag)
	}
	off := int64(lb) - int64(base+redzone.Size)
	var where string
	switch {
	case off < 0:
		where = fmt.Sprintf("%d bytes before", -off)
	case off >= int64(objSize):
		where = fmt.Sprintf("%d bytes past the end of", off-int64(objSize))
	default:
		where = fmt.Sprintf("%d bytes into", off)
	}
	return fmt.Sprintf("%s; access %s a %d-byte object allocated at %#x%s",
		desc, where, objSize, allocPC, tag)
}

// Coverage returns the dynamic full-check coverage of a run over its
// check runtimes: the fraction of executed checks, weighted by the
// operands each covers, whose mode is ModeFull (paper Table 1,
// "coverage"). It is 0 when no check executed.
func Coverage(rts ...*Runtime) float64 {
	var full, total int
	for _, rt := range rts {
		for i := range rt.Checks {
			if rt.Stats[i].Execs == 0 {
				continue
			}
			total += int(rt.Checks[i].Merged)
			if rt.Checks[i].Mode == ModeFull {
				full += int(rt.Checks[i].Merged)
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(full) / float64(total)
}
