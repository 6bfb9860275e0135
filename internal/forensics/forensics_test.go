package forensics_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/forensics"
	"redfat/internal/isa"
	"redfat/internal/obs"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
	"redfat/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden report files")

// buildOOBProgram assembles the canonical forensic scenario: main calls
// make_buf (a 40-byte malloc) and then smash, which stores to
// buf[rf_input()] — index 40 lands 280 bytes past the end, in a slot
// never handed out, so attribution must walk back to the owning object.
func buildOOBProgram(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.Call("make_buf")
	b.MovRR(isa.RBX, isa.RAX)
	b.Call("smash")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	b.Func("make_buf")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.Ret()
	b.Func("smash")
	b.CallImport("rf_input")
	b.MovRI(isa.RCX, 7)
	b.StoreM(asm.MemBID(isa.RBX, isa.RAX, 8, 0), isa.RCX, 8)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// buildUAFProgram allocates through a helper, frees in main, then writes
// through the dangling pointer.
func buildUAFProgram(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.Call("make_buf")
	b.MovRR(isa.RBX, isa.RAX)
	b.MovRR(isa.RDI, isa.RAX)
	b.CallImport("free")
	b.StoreI(isa.RBX, 0, 0x42, 8) // write after free
	b.MovRI(isa.RAX, 0)
	b.Ret()
	b.Func("make_buf")
	b.MovRI(isa.RDI, 64)
	b.CallImport("malloc")
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// buildInvalidFreeProgram frees an interior pointer (base+8).
func buildInvalidFreeProgram(t *testing.T) *relf.Binary {
	t.Helper()
	b := asm.NewBuilder(asm.Options{})
	b.Func("main")
	b.MovRI(isa.RDI, 40)
	b.CallImport("malloc")
	b.MovRR(isa.RDI, isa.RAX)
	b.AluRI(isa.ADD, isa.RDI, 8)
	b.CallImport("free")
	b.MovRI(isa.RAX, 0)
	b.Ret()
	bin, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// runForensic hardens bin with the production configuration and runs it
// with forensic capture on, returning the finished VM, the resolved
// reports, and the hardened image.
func runForensic(t *testing.T, bin *relf.Binary, input []uint64) (*vm.VM, []*forensics.ErrorReport, *relf.Binary) {
	t.Helper()
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	v, rt, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: input, Abort: true, Forensics: true,
	})
	if err != nil {
		if _, ok := err.(*vm.MemError); !ok {
			t.Fatal(err)
		}
	}
	rep := forensics.NewReporter(forensics.NewSymbolizer(hard), rt.Heap)
	return v, rep.ReportAll(v.Errors), hard
}

// TestOOBReportNamesOwningObject is the acceptance scenario: a forensic
// OOB-write report must name the owning allocation's size, the offset
// past its end, and a symbolized allocation backtrace.
func TestOOBReportNamesOwningObject(t *testing.T) {
	_, reports, _ := runForensic(t, buildOOBProgram(t), []uint64{40})
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	r := reports[0]
	if r.Kind != "out-of-bounds write" {
		t.Errorf("kind = %q", r.Kind)
	}
	if r.PCFrame.Symbol != "smash" {
		t.Errorf("fault pc frame = %v, want smash+…", r.PCFrame)
	}
	if len(r.Stack) == 0 || r.Stack[0].Symbol != "main" {
		t.Errorf("guest stack = %v, want caller main", r.Stack)
	}
	o := r.Object
	if o == nil {
		t.Fatal("no object attribution")
	}
	if o.Size != 40 {
		t.Errorf("object size = %d, want 40", o.Size)
	}
	if o.Relation != "past-end" {
		t.Errorf("relation = %q, want past-end", o.Relation)
	}
	if past := o.Offset - int64(o.Size); past != 280 {
		t.Errorf("offset past end = %d, want 280 (index 40 × 8 − 40)", past)
	}
	if o.AllocPC.Symbol != "make_buf" {
		t.Errorf("alloc pc = %v, want make_buf+…", o.AllocPC)
	}
	if len(o.AllocStack) == 0 || o.AllocStack[0].Symbol != "main" {
		t.Errorf("alloc stack = %v, want caller main", o.AllocStack)
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"280 bytes past the end of a 40-byte object",
		"allocated at make_buf+",
		"#0 main+",
	} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, text.String())
		}
	}
}

func TestUAFReportHistory(t *testing.T) {
	_, reports, _ := runForensic(t, buildUAFProgram(t), nil)
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	r := reports[0]
	if r.Kind != "use-after-free" {
		t.Errorf("kind = %q", r.Kind)
	}
	o := r.Object
	if o == nil {
		t.Fatal("no object attribution")
	}
	if !o.Freed || o.Relation != "freed" {
		t.Errorf("object not marked freed: %+v", o)
	}
	if o.AllocPC.Symbol != "make_buf" {
		t.Errorf("alloc pc = %v, want make_buf+…", o.AllocPC)
	}
	if o.FreePC == nil || o.FreePC.Symbol != "main" {
		t.Errorf("free pc = %v, want main+…", o.FreePC)
	}
	var text bytes.Buffer
	if err := r.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(text.String(), "freed at main+") {
		t.Errorf("text report missing free site:\n%s", text.String())
	}
}

func TestInvalidFreeReport(t *testing.T) {
	_, reports, _ := runForensic(t, buildInvalidFreeProgram(t), nil)
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	r := reports[0]
	if r.Kind != "invalid free" {
		t.Errorf("kind = %q", r.Kind)
	}
	// The interior pointer still resolves to the live owning object.
	if r.Object == nil || r.Object.Size != 40 || r.Object.Relation != "inside" {
		t.Errorf("object = %+v, want 8 bytes into the live 40-byte object", r.Object)
	}
}

// TestGoldenReports locks the rendered text and JSON forms byte-for-byte
// for the three canonical errors. The VM is deterministic, so any drift
// is a real format change; regenerate with: go test ./internal/forensics
// -run Golden -update
func TestGoldenReports(t *testing.T) {
	cases := []struct {
		name  string
		build func(*testing.T) *relf.Binary
		input []uint64
	}{
		{"oob_write", buildOOBProgram, []uint64{40}},
		{"use_after_free", buildUAFProgram, nil},
		{"invalid_free", buildInvalidFreeProgram, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, reports, _ := runForensic(t, tc.build(t), tc.input)
			if len(reports) == 0 {
				t.Fatal("no reports")
			}
			var text, js bytes.Buffer
			for _, r := range reports {
				if err := r.WriteText(&text); err != nil {
					t.Fatal(err)
				}
				if err := r.WriteJSON(&js); err != nil {
					t.Fatal(err)
				}
			}
			compareGolden(t, tc.name+".txt", text.Bytes())
			compareGolden(t, tc.name+".json", js.Bytes())
		})
	}
}

func compareGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with -update): %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// TestStrippedImageFallback re-runs the OOB scenario on a stripped
// binary: reports must fall back to raw <0x…> addresses but keep the
// object attribution, which comes from allocator bookkeeping.
func TestStrippedImageFallback(t *testing.T) {
	bin := buildOOBProgram(t)
	bin.Strip()
	_, reports, hard := runForensic(t, bin, []uint64{40})
	if !forensics.NewSymbolizer(hard).Stripped() {
		t.Error("symbolizer over stripped image not marked stripped")
	}
	if len(reports) == 0 {
		t.Fatal("no reports")
	}
	r := reports[0]
	if r.PCFrame.Symbol != "" {
		t.Errorf("stripped frame has symbol %q", r.PCFrame.Symbol)
	}
	if !strings.HasPrefix(r.PCFrame.String(), "<0x") {
		t.Errorf("stripped frame renders %q, want <0x…>", r.PCFrame.String())
	}
	if r.Object == nil || r.Object.Size != 40 {
		t.Errorf("stripped run lost object attribution: %+v", r.Object)
	}
	if r.Object.AllocPC.Symbol != "" || r.Object.AllocPC.PC == 0 {
		t.Errorf("stripped alloc frame = %+v, want bare PC", r.Object.AllocPC)
	}
}

// TestSymbolizerOutOfRange covers PCs no symbol spans: before the image,
// between the end of a function and the next, and a nil symbolizer.
func TestSymbolizerOutOfRange(t *testing.T) {
	bin := buildOOBProgram(t)
	sym := forensics.NewSymbolizer(bin)
	var max uint64
	for _, s := range bin.Symbols {
		if s.Func && s.Addr+s.Size > max {
			max = s.Addr + s.Size
		}
	}
	for _, pc := range []uint64{1, max + 0x1000} {
		if f := sym.Frame(pc); f.Symbol != "" {
			t.Errorf("Frame(%#x) = %v, want no symbol", pc, f)
		}
	}
	if got := sym.Format(1); got != "<0x1>" {
		t.Errorf("Format(1) = %q", got)
	}
	var nilSym *forensics.Symbolizer
	if !nilSym.Stripped() {
		t.Error("nil symbolizer not stripped")
	}
	if got := nilSym.Format(0x400000); got != "<0x400000>" {
		t.Errorf("nil Format = %q", got)
	}
}

// TestTrampolinePCResolution feeds PCs inside the rewriter-added
// trampoline section: frames must map back to the patched origin and
// name the original guest function.
func TestTrampolinePCResolution(t *testing.T) {
	bin := buildOOBProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var tramp *relf.Section
	for _, sec := range hard.Sections {
		if sec.Kind == relf.SecTramp {
			tramp = sec
			break
		}
	}
	if tramp == nil {
		t.Fatal("hardened image has no trampoline section")
	}
	sym := forensics.NewSymbolizer(hard)
	f := sym.Frame(tramp.Addr)
	if !f.Tramp {
		t.Fatalf("Frame(%#x) not marked tramp: %+v", tramp.Addr, f)
	}
	if f.Origin == 0 || f.Symbol == "" {
		t.Errorf("tramp frame unresolved: %+v", f)
	}
	if !strings.Contains(f.String(), "[tramp ") {
		t.Errorf("tramp frame renders %q", f.String())
	}
	// A stripped image keeps the patch table: the origin still resolves,
	// only the name is lost.
	stripped := buildOOBProgram(t)
	stripped.Strip()
	shard, _, err := redfat.Harden(stripped, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var stramp *relf.Section
	for _, sec := range shard.Sections {
		if sec.Kind == relf.SecTramp {
			stramp = sec
			break
		}
	}
	if stramp == nil {
		t.Fatal("stripped hardened image has no trampoline section")
	}
	sf := forensics.NewSymbolizer(shard).Frame(stramp.Addr)
	if !sf.Tramp || sf.Origin == 0 || sf.Symbol != "" {
		t.Errorf("stripped tramp frame = %+v, want origin without symbol", sf)
	}
}

// TestForensicsCycleIdentity is the bit-identity acceptance criterion:
// enabling forensic capture and the sampling profiler must not change
// guest cycle counts, instruction counts, exit codes, or detections —
// on both the benign and the error path.
func TestForensicsCycleIdentity(t *testing.T) {
	bin := buildOOBProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	for _, input := range [][]uint64{{2}, {40}} {
		plain, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input, Abort: true})
		if _, ok := err.(*vm.MemError); err != nil && !ok {
			t.Fatal(err)
		}
		full, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: input, Abort: true,
			Forensics: true,
			Profiler:  &vm.GuestProfiler{Interval: 16},
		})
		if _, ok := err.(*vm.MemError); err != nil && !ok {
			t.Fatal(err)
		}
		if plain.Cycles != full.Cycles || plain.Insts != full.Insts {
			t.Errorf("input %v: forensics perturbed execution: %d/%d cycles vs %d/%d insts",
				input, plain.Cycles, full.Cycles, plain.Insts, full.Insts)
		}
		if plain.ExitCode != full.ExitCode || len(plain.Errors) != len(full.Errors) {
			t.Errorf("input %v: results diverged: exit %d vs %d, %d vs %d errors",
				input, plain.ExitCode, full.ExitCode, len(plain.Errors), len(full.Errors))
		}
	}
}

// TestWorkloadCycleIdentity extends the bit-identity check to real
// workload benchmarks: the guest cycle counts that feed Table 1 must be
// unchanged with forensics and profiling enabled.
func TestWorkloadCycleIdentity(t *testing.T) {
	bms := workload.All()
	if testing.Short() {
		bms = bms[:3]
	}
	for _, bm := range bms {
		cp := *bm
		cp.RefScale = 800
		cp.TrainScale = 200
		bin, err := cp.Build()
		if err != nil {
			t.Fatalf("%s: build: %v", cp.Name, err)
		}
		hard, _, err := redfat.Harden(bin, redfat.Defaults())
		if err != nil {
			t.Fatalf("%s: harden: %v", cp.Name, err)
		}
		input := cp.RefInput()
		plain, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input})
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		full, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
			Input: input, Forensics: true, Profiler: &vm.GuestProfiler{},
		})
		if err != nil {
			t.Fatalf("%s: %v", cp.Name, err)
		}
		if plain.Cycles != full.Cycles || plain.Insts != full.Insts ||
			plain.ExitCode != full.ExitCode {
			t.Errorf("%s: forensics perturbed the run: %d/%d/%d vs %d/%d/%d (cycles/insts/exit)",
				cp.Name, plain.Cycles, plain.Insts, plain.ExitCode,
				full.Cycles, full.Insts, full.ExitCode)
		}
	}
}

// TestFoldedOutputConsumable runs the profiler and parses the folded
// stacks the way flamegraph tooling does: every line is
// "frame;frame;… cycles", frames are root-first starting at main, and
// the cycle counts sum to the profiler's attributed total.
func TestFoldedOutputConsumable(t *testing.T) {
	bin := buildOOBProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	prof := &vm.GuestProfiler{Interval: 16}
	if _, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: []uint64{2}, Abort: true, Profiler: prof,
	}); err != nil {
		t.Fatal(err)
	}
	if prof.SampleCount() == 0 {
		t.Fatal("profiler took no samples")
	}
	var buf bytes.Buffer
	if err := forensics.WriteFolded(&buf, prof, forensics.NewSymbolizer(hard)); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatalf("no folded output:\n%s", buf.String())
	}
	var sum uint64
	seen := make(map[string]bool)
	for _, line := range lines {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed folded line %q", line)
		}
		stack, count := line[:i], line[i+1:]
		n, err := strconv.ParseUint(count, 10, 64)
		if err != nil {
			t.Fatalf("folded count %q: %v", count, err)
		}
		sum += n
		if seen[stack] {
			t.Errorf("duplicate folded stack %q (should be merged)", stack)
		}
		seen[stack] = true
		frames := strings.Split(stack, ";")
		if len(frames) == 0 || frames[0] == "" {
			t.Fatalf("empty frames in %q", line)
		}
	}
	if sum != prof.TotalCycles() {
		t.Errorf("folded cycles sum %d != attributed total %d", sum, prof.TotalCycles())
	}
}

// TestChromeTraceParses validates the trace-event export: well-formed
// JSON with instant events from the flight ring and duration events from
// the profiler timeline.
func TestChromeTraceParses(t *testing.T) {
	bin := buildOOBProgram(t)
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	flight := obs.NewFlight(256)
	flight.Execution = true
	prof := &vm.GuestProfiler{Interval: 16}
	if _, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{
		Input: []uint64{2}, Abort: true, Flight: flight, Profiler: prof,
	}); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := forensics.WriteChromeTrace(&buf, flight.Dump(), prof, forensics.NewSymbolizer(hard)); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			TID   int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v\n%s", err, buf.String())
	}
	var instants, spans int
	for _, ev := range doc.TraceEvents {
		switch ev.Phase {
		case "i":
			instants++
		case "X":
			spans++
		}
	}
	if instants == 0 || spans == 0 {
		t.Errorf("trace has %d instant and %d span events, want both > 0",
			instants, spans)
	}
}
