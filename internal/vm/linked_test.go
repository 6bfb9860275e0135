package vm_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/obs"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/telemetry"
	"redfat/internal/vm"
)

var update = flag.Bool("update", false, "rewrite testdata/linked_traces.golden.json")

// reportLoopSrc stores through a 40-byte object at index i&7, so three
// of every eight stores overflow it. Its fused check reports each one
// and the run goes on (no abort).
const reportLoopSrc = `
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    mov $0, %rcx
loop:
    mov %rcx, %rax
    and $7, %rax
    mov %rcx, (%rbx,%rax,8)
    add $1, %rcx
    cmp $100, %rcx
    jl loop
    mov $0, %rax
    ret
`

// linkedRun is one run of testdata/linked_traces.golden.json: the guest
// outcome, the default-grain flight ring, the trace table and the
// telemetry without host-time series.
type linkedRun struct {
	Name      string              `json:"name"`
	Err       string              `json:"err,omitempty"`
	ExitCode  uint64              `json:"exit_code"`
	Cycles    uint64              `json:"cycles"`
	Insts     uint64              `json:"insts"`
	Errors    int                 `json:"errors"`
	Flight    *obs.FlightDump     `json:"flight"`
	Traces    []obs.TraceRow      `json:"traces"`
	Telemetry *telemetry.Snapshot `json:"telemetry"`
}

// runLinked runs bin (hardened or baseline) with a ring large enough to
// keep the whole run, and telemetry when reg is set.
func runLinked(t *testing.T, name string, bin *relf.Binary, hardened bool, cfg rtlib.RunConfig, reg *telemetry.Registry) linkedRun {
	t.Helper()
	cfg.Flight = obs.NewFlight(1 << 13)
	cfg.Metrics = reg
	cfg.JITThreshold = 8
	var v *vm.VM
	var err error
	if hardened {
		v, _, err = rtlib.RunHardened(bin, cfg)
	} else {
		v, err = rtlib.RunBaseline(bin, cfg)
	}
	r := linkedRun{
		Name: name, ExitCode: v.ExitCode, Cycles: v.Cycles, Insts: v.Insts,
		Errors: len(v.Errors), Flight: cfg.Flight.Dump(), Traces: v.TraceRows(),
	}
	if err != nil {
		r.Err = err.Error()
	}
	if reg != nil {
		r.Telemetry = reg.Snapshot().StripHostTime()
	}
	return r
}

// TestLinkedTracesMatchGolden holds what a run records at trace exits to
// a golden captured when every exit returned to the block dispatcher:
// the flight ring (deopt and trace-enter events in order), each trace's
// entries and deopts, and the telemetry counters. The runs cover a hot
// loop, a loop leaving by a side exit every other iteration, a dynamic
// exit retargeted every iteration, a cycle budget that stops a run
// inside a hot loop, and a fused check that reports without aborting.
// A run without telemetry must record the same ring and trace table.
func TestLinkedTracesMatchGolden(t *testing.T) {
	harden := func(bin *relf.Binary) *relf.Binary {
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatal(err)
		}
		return hard
	}
	report, err := asm.Assemble(reportLoopSrc)
	if err != nil {
		t.Fatal(err)
	}
	type spec struct {
		name     string
		bin      *relf.Binary
		hardened bool
		cfg      rtlib.RunConfig
	}
	var specs []spec
	for _, shape := range []struct {
		name string
		gen  func(int64) func(*asm.Builder)
	}{
		{"hot-loop", benchHotLoop},
		{"side-exit", benchSideExit},
		{"deopt-storm", benchDeoptStorm},
	} {
		bin := buildBench(t, shape.gen(100))
		specs = append(specs,
			spec{shape.name + "/baseline", bin, false, rtlib.RunConfig{}},
			spec{shape.name + "/hardened", harden(bin), true, rtlib.RunConfig{}})
	}
	specs = append(specs,
		spec{"side-exit/budget", buildBench(t, benchSideExit(100)), false, rtlib.RunConfig{MaxCycles: 700}},
		spec{"fused-report/hardened", harden(report), true, rtlib.RunConfig{}})

	var got []linkedRun
	for _, s := range specs {
		r := runLinked(t, s.name, s.bin, s.hardened, s.cfg, telemetry.New())
		bare := runLinked(t, s.name, s.bin, s.hardened, s.cfg, nil)
		if !reflect.DeepEqual(bare.Flight, r.Flight) || !reflect.DeepEqual(bare.Traces, r.Traces) ||
			bare.Cycles != r.Cycles || bare.Err != r.Err {
			t.Errorf("%s: a run without telemetry records a different ring, trace table or outcome", s.name)
		}
		got = append(got, r)
	}
	// One run per line keeps the golden small and its diffs per run.
	data := []byte("[\n")
	for i, r := range got {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			data = append(data, ",\n"...)
		}
		data = append(data, line...)
	}
	data = append(data, "\n]\n"...)
	path := filepath.Join("testdata", "linked_traces.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, want) {
		var w []linkedRun
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(w) {
				break
			}
			g, _ := json.Marshal(got[i])
			e, _ := json.Marshal(w[i])
			if !bytes.Equal(g, e) {
				t.Errorf("%s differs from the golden:\n got %s\nwant %s", got[i].Name, g, e)
			}
		}
		if len(got) != len(w) {
			t.Errorf("%d runs, golden has %d", len(got), len(w))
		}
		t.Error("output differs from testdata/linked_traces.golden.json (rerun with -update only if the change is intended)")
	}
}
