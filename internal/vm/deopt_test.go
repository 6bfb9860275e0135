package vm_test

import (
	"errors"
	"reflect"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/heap"
	"redfat/internal/isa"
	"redfat/internal/mem"
	"redfat/internal/obs"
	core "redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

// deoptReasonNames enumerates the telemetry series the reason split
// registers, in enum order.
func deoptReasonNames() []string {
	names := make([]string, 0, vm.NumDeoptReasons)
	for r := vm.DeoptReason(0); int(r) < vm.NumDeoptReasons; r++ {
		names = append(names, "vm.jit.deopt."+r.String()+".count")
	}
	return names
}

// checkDeoptAccounting asserts the split is internally consistent: the
// aggregate equals the sum of the per-reason counters, and each reason's
// counter equals the sum of that reason over the trace rows.
func checkDeoptAccounting(t *testing.T, label string, v *vm.VM, snap *telemetry.Snapshot) {
	t.Helper()
	var byReason uint64
	for _, name := range deoptReasonNames() {
		byReason += snap.Counters[name]
	}
	if agg := snap.Counters["vm.jit.deopt.count"]; agg != byReason {
		t.Errorf("%s: aggregate deopts %d != per-reason sum %d", label, agg, byReason)
	}
	byTrace := map[string]uint64{}
	for _, row := range v.TraceRows() {
		for _, d := range row.Deopts {
			if d.Count == 0 {
				t.Errorf("%s: trace %#x lists a zero %s count", label, row.EntryPC, d.Reason)
			}
			byTrace["vm.jit.deopt."+d.Reason+".count"] += d.Count
		}
	}
	for _, name := range deoptReasonNames() {
		if byTrace[name] != snap.Counters[name] {
			t.Errorf("%s: per-trace %s %d != counter %d", label, name, byTrace[name], snap.Counters[name])
		}
	}
}

// buildHaltTrace is a straight-line program whose RET pops the exit
// sentinel from inside the compiled trace (threshold 1 compiles on the
// first dispatch).
func buildHaltTrace(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 5)
	b.AluRI(isa.ADD, isa.RAX, 2)
	b.AluRI(isa.SUB, isa.RAX, 3)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// buildDivFault is the division-fault loop from TestJITDivFaultIdentity:
// the divisor hits zero on iteration 40, well after the loop compiled.
func buildDivFault(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RAX, 1000)
	b.MovRI(isa.RBX, 0)
	b.MovRI(isa.RCX, 40)
	b.Label("loop")
	b.AluRI(isa.ADD, isa.RBX, 1)
	b.MovRR(isa.RDI, isa.RCX)
	b.Emit(isa.Inst{Op: isa.UDIV, Form: isa.FR, Reg: isa.RDI})
	b.AluRI(isa.SUB, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RBX, 100)
	b.Jcc(isa.JL, "loop")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// buildOverflowLoop walks a store pointer off the end of a 40-byte heap
// object: iterations 0-4 are in bounds, the later ones cross into the
// redzone, so a hardened run aborts from the fused check after the loop
// has been running compiled.
func buildOverflowLoop(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRI(isa.RCX, 0)
	b.Label("loop")
	b.StoreI(isa.RBX, 0, 0x41, 8)
	b.AluRI(isa.ADD, isa.RBX, 8)
	b.AluRI(isa.ADD, isa.RCX, 1)
	b.AluRI(isa.CMP, isa.RCX, 12)
	b.Jcc(isa.JL, "loop")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// hardenedRun executes a hardened binary under the superblock tier with
// telemetry (and optionally a flight recorder) attached.
func hardenedRun(t *testing.T, hard *relf.Binary, flight *obs.Flight, noJIT bool) (*vm.VM, *telemetry.Snapshot, error) {
	t.Helper()
	reg := telemetry.New()
	v, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Abort: true, Knobs: rtlib.Knobs{JITThreshold: 2, NoJIT: noJIT}, MaxCycles: 1_000_000,
		Metrics: reg, Flight: flight,
	})
	return v, reg.Snapshot(), err
}

// TestJITDeoptReasons exercises every deopt-reason bucket and checks the
// attribution arithmetic: side and dyn from the alternating workload,
// halt from a sentinel RET inside a trace, fault from a division fault,
// budget from the cycle-budget guard, and trap from an aborting fused
// check in a hardened run.
func TestJITDeoptReasons(t *testing.T) {
	exercised := map[string]bool{}
	note := func(snap *telemetry.Snapshot) {
		for _, r := range []vm.DeoptReason{vm.DeoptSide, vm.DeoptDyn, vm.DeoptHalt,
			vm.DeoptFault, vm.DeoptTrap, vm.DeoptBudget} {
			if snap.Counters["vm.jit.deopt."+r.String()+".count"] > 0 {
				exercised[r.String()] = true
			}
		}
	}

	// side + dyn: the alternating conditional and the retargeting
	// indirect jump of the trace-shape workload.
	v, snap, err := jitRun(t, buildJIT(t), false, 2, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["vm.jit.deopt.side.count"] == 0 {
		t.Error("alternating branch produced no side deopts")
	}
	if snap.Counters["vm.jit.deopt.dyn.count"] == 0 {
		t.Error("retargeting indirect jump produced no dyn deopts")
	}
	checkDeoptAccounting(t, "side/dyn", v, snap)
	note(snap)

	// halt: threshold 1 compiles the straight line on first dispatch, so
	// the program ends by popping the sentinel inside the trace.
	v, snap, err = jitRun(t, buildHaltTrace(t), false, 1, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if v.ExitCode != 4 {
		t.Fatalf("halt workload exit = %d, want 4", v.ExitCode)
	}
	if snap.Counters["vm.jit.compile.count"] == 0 {
		t.Fatal("halt workload never compiled; the halt path is unexercised")
	}
	if snap.Counters["vm.jit.deopt.halt.count"] == 0 {
		t.Error("sentinel RET inside a trace produced no halt deopt")
	}
	checkDeoptAccounting(t, "halt", v, snap)
	note(snap)

	// fault: the division fault fires on iteration 40 of a compiled loop.
	v, snap, err = jitRun(t, buildDivFault(t), false, 2, 1_000_000)
	if err == nil {
		t.Fatal("division workload did not fault")
	}
	if snap.Counters["vm.jit.deopt.fault.count"] == 0 {
		t.Error("in-trace division fault produced no fault deopt")
	}
	checkDeoptAccounting(t, "fault", v, snap)
	note(snap)

	// budget: a budget the loop outlives forces the entry guard (or the
	// back-edge guard) to hand the block back to the interpreter.
	v, snap, err = jitRun(t, buildJIT(t), false, 2, 4096)
	var cle *vm.CycleLimitError
	if !errors.As(err, &cle) {
		t.Fatalf("budget workload: %v, want cycle-limit abort", err)
	}
	if snap.Counters["vm.jit.deopt.budget.count"] == 0 {
		t.Error("budget abort produced no budget deopt")
	}
	checkDeoptAccounting(t, "budget", v, snap)
	note(snap)

	// trap: the fused check aborts mid-loop in a hardened run.
	hard, _, err := core.Harden(buildOverflowLoop(t), core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	v, snap, err = hardenedRun(t, hard, nil, false)
	var me *vm.MemError
	if !errors.As(err, &me) {
		t.Fatalf("hardened overflow loop: %v, want detection", err)
	}
	if snap.Counters["vm.jit.compile.count"] == 0 {
		t.Fatal("hardened loop never compiled; the trap path is unexercised")
	}
	if snap.Counters["vm.jit.deopt.trap.count"] == 0 {
		t.Error("aborting fused check produced no trap deopt")
	}
	checkDeoptAccounting(t, "trap", v, snap)
	note(snap)

	for _, r := range []string{"side", "dyn", "halt", "fault", "trap", "budget"} {
		if !exercised[r] {
			t.Errorf("deopt reason %q never exercised across the suite", r)
		}
	}
}

// flightRun is jitRun plus an optional flight recorder on both the VM
// and its guest memory.
func flightRun(t *testing.T, bin *relf.Binary, flight *obs.Flight, noJIT bool, maxCycles uint64) (*vm.VM, *telemetry.Snapshot, error) {
	t.Helper()
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = maxCycles
	v.NoJIT = noJIT
	v.JITThreshold = 2
	v.Flight = flight
	m.Flight = flight
	reg := telemetry.New()
	v.AttachTelemetry(reg)
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		t.Fatalf("load: %v", err)
	}
	err := v.Run()
	return v, reg.Snapshot(), err
}

// TestFlightIdentityMatrix proves the flight recorder is a pure
// observer: across clean, budget-aborting, faulting and hardened
// detection runs, attaching a recorder leaves guest cycles, retirement,
// exit state, detections and the whole (host-time-stripped) telemetry
// snapshot bit-identical — while the ring actually records events. Each
// case runs at both grains; execution grain pins tier 0, so its
// reference run has no recorder and NoJIT.
func TestFlightIdentityMatrix(t *testing.T) {
	type runner func(t *testing.T, flight *obs.Flight, noJIT bool) (*vm.VM, *telemetry.Snapshot, error)
	hard, _, err := core.Harden(buildOverflowLoop(t), core.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		run  runner
	}{
		{"clean-jit", func(t *testing.T, f *obs.Flight, noJIT bool) (*vm.VM, *telemetry.Snapshot, error) {
			return flightRun(t, buildJIT(t), f, noJIT, 100_000_000)
		}},
		{"budget-abort", func(t *testing.T, f *obs.Flight, noJIT bool) (*vm.VM, *telemetry.Snapshot, error) {
			return flightRun(t, buildJIT(t), f, noJIT, 4096)
		}},
		{"div-fault", func(t *testing.T, f *obs.Flight, noJIT bool) (*vm.VM, *telemetry.Snapshot, error) {
			return flightRun(t, buildDivFault(t), f, noJIT, 1_000_000)
		}},
		{"hardened-detect", func(t *testing.T, f *obs.Flight, noJIT bool) (*vm.VM, *telemetry.Snapshot, error) {
			return hardenedRun(t, hard, f, noJIT)
		}},
	}
	newFlight := func(execution bool) *obs.Flight {
		f := obs.NewFlight(256)
		f.Execution = execution
		return f
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, execution := range []bool{false, true} {
				flight := newFlight(execution)
				on, onSnap, onErr := tc.run(t, flight, false)
				off, offSnap, offErr := tc.run(t, nil, execution)
				grain := "default"
				if execution {
					grain = "execution"
				}
				if (onErr == nil) != (offErr == nil) ||
					(onErr != nil && onErr.Error() != offErr.Error()) {
					t.Fatalf("%s grain: error divergence: flight-on %v, flight-off %v", grain, onErr, offErr)
				}
				if on.ExitCode != off.ExitCode || on.Cycles != off.Cycles ||
					on.Insts != off.Insts || on.RIP != off.RIP {
					t.Errorf("%s grain: state divergence: exit %d/%d cycles %d/%d insts %d/%d rip %#x/%#x",
						grain, on.ExitCode, off.ExitCode, on.Cycles, off.Cycles,
						on.Insts, off.Insts, on.RIP, off.RIP)
				}
				if !reflect.DeepEqual(on.Errors, off.Errors) {
					t.Errorf("%s grain: detection divergence: flight-on %v, flight-off %v", grain, on.Errors, off.Errors)
				}
				if !reflect.DeepEqual(on.TraceRows(), off.TraceRows()) {
					t.Errorf("%s grain: trace-table divergence:\non:  %+v\noff: %+v", grain, on.TraceRows(), off.TraceRows())
				}
				if !reflect.DeepEqual(onSnap.StripHostTime(), offSnap.StripHostTime()) {
					t.Errorf("%s grain: telemetry divergence:\non:  %+v\noff: %+v", grain, onSnap, offSnap)
				}
				if flight.Total() == 0 {
					t.Errorf("%s grain: flight recorded nothing; the identity claim is vacuous", grain)
				}
				retires := 0
				for _, e := range flight.Events() {
					if e.Kind == obs.EvInst {
						retires++
					}
				}
				if execution && retires == 0 {
					t.Error("execution grain: the ring holds no inst events")
				}
				if !execution && retires != 0 {
					t.Errorf("default grain: the ring holds %d inst events", retires)
				}
				// Determinism of the ring itself: a third run with a fresh
				// recorder must dump byte-identical events.
				flight2 := newFlight(execution)
				tc.run(t, flight2, false)
				if !reflect.DeepEqual(flight.Dump(), flight2.Dump()) {
					t.Errorf("%s grain: two identical runs dumped different flight rings", grain)
				}
			}
		})
	}
}

// TestFlightRecordsNoPerIterationEvents is the flight recorder's hot-path
// guard on the VM side, counted rather than timed: at default grain a
// compiled loop records nothing per iteration, so the benchmark hot loop
// records as many events at 200,000 iterations as at 100,000 (the
// load-time TLB flushes, block entries, the compile, and the trace's one
// entry and its exit), while it retires about twice the instructions.
func TestFlightRecordsNoPerIterationEvents(t *testing.T) {
	var events, insts [2]uint64
	for i, iters := range []int64{100_000, 200_000} {
		flight := obs.NewFlight(0)
		insts[i] = benchRunFlight(t, buildBench(t, benchHotLoop(iters)), flight)
		events[i] = flight.Total()
	}
	if events[0] != events[1] || insts[1] < 2*insts[0]-10 {
		t.Errorf("hot loop at 100k/200k iterations: %d/%d events, %d/%d instructions; want equal events, twice the instructions",
			events[0], events[1], insts[0], insts[1])
	}
	t.Logf("%d events per run", events[0])
}

// benchRunFlight is benchRun with a flight recorder attached.
func benchRunFlight(tb testing.TB, bin *relf.Binary, flight *obs.Flight) uint64 {
	m := mem.New()
	v := vm.New(m)
	v.MaxCycles = 2_000_000_000
	v.JITThreshold = 8
	v.Flight = flight
	m.Flight = flight
	if err := v.Load(bin, rtlib.LibC(heap.New(m), m)); err != nil {
		tb.Fatal(err)
	}
	if err := v.Run(); err != nil {
		tb.Fatal(err)
	}
	return v.Insts
}
