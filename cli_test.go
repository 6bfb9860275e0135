package redfat_test

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"redfat/internal/bench"
)

// tools holds the command-line tools that buildTools compiles once per
// test binary; TestMain removes the directory after the tests run.
var tools struct {
	once sync.Once
	dir  string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if tools.dir != "" {
		os.RemoveAll(tools.dir)
	}
	os.Exit(code)
}

// buildTools compiles the command-line tools once per test binary and
// returns the directory holding them.
func buildTools(t *testing.T) string {
	t.Helper()
	tools.once.Do(func() {
		dir, err := os.MkdirTemp("", "redfat-cli-")
		if err != nil {
			tools.err = err
			return
		}
		tools.dir = dir
		cmd := exec.Command("go", "build", "-o", dir+string(os.PathSeparator), "./cmd/...")
		cmd.Env = os.Environ()
		if out, err := cmd.CombinedOutput(); err != nil {
			tools.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if tools.err != nil {
		t.Fatalf("building tools: %v", tools.err)
	}
	return tools.dir
}

func runTool(t *testing.T, dir, name string, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(filepath.Join(dir, name), args...)
	out, err := cmd.CombinedOutput()
	code := 0
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out)
	}
	return string(out), code
}

const cliProg = `
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    call @rf_input
    mov $7, %rcx
    mov %rcx, (%rbx,%rax,8)
    mov $0, %rax
    ret
`

// cliLoopProg retires about 3000 instructions, more events than the
// flight ring's default capacity holds.
const cliLoopProg = `
.func main
    mov $0, %rcx
loop:
    add $1, %rcx
    cmp $1000, %rcx
    jl loop
    mov $0, %rax
    ret
`

// eventWindow returns the event lines rfvm -events prints after its
// "execution events" header.
func eventWindow(out string) []string {
	_, window, ok := strings.Cut(out, " execution events ---\n")
	if !ok {
		return nil
	}
	var lines []string
	for _, line := range strings.Split(window, "\n") {
		if strings.HasPrefix(line, "---") {
			break
		}
		if strings.HasPrefix(line, "  #") {
			lines = append(lines, line)
		}
	}
	return lines
}

// TestCLIPipeline drives the full assemble → harden → run → disassemble
// workflow through the real command-line tools.
func TestCLIPipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "prog.s")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	relfPath := filepath.Join(work, "prog.relf")
	hardPath := filepath.Join(work, "prog.hard.relf")

	out, code := runTool(t, bin, "rfasm", "-o", relfPath, src)
	if code != 0 {
		t.Fatalf("rfasm: %s", out)
	}
	out, code = runTool(t, bin, "redfat", "-v", "-o", hardPath, relfPath)
	if code != 0 || !strings.Contains(out, "checks") {
		t.Fatalf("redfat: %d %s", code, out)
	}

	// Benign run.
	out, code = runTool(t, bin, "rfvm", "-hardened", "-abort", "-input", "2", hardPath)
	if code != 0 || !strings.Contains(out, "exit=0") {
		t.Fatalf("benign rfvm run: %d %s", code, out)
	}
	// Attack run: detected, non-zero exit.
	out, code = runTool(t, bin, "rfvm", "-hardened", "-abort", "-input", "40", hardPath)
	if code == 0 || !strings.Contains(out, "out-of-bounds write") {
		t.Fatalf("attack rfvm run: %d %s", code, out)
	}
	if !strings.Contains(out, "allocated at") {
		t.Errorf("diagnostic missing allocation site: %s", out)
	}

	// -stats prints the telemetry report with nonzero VM, check and
	// allocator counters; -events prints the trailing event window.
	out, code = runTool(t, bin, "rfvm", "-hardened", "-stats", "-events", "8",
		"-input", "2", hardPath)
	if code != 0 {
		t.Fatalf("rfvm -stats: %d %s", code, out)
	}
	for _, want := range []string{
		"vm.retired.total", "check.execs", "lowfat.allocs",
		"hottest checks", "execution events",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("rfvm -stats output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "vm.retired.total                            0") {
		t.Errorf("retired counter is zero: %s", out)
	}
	// The window of a detection run holds the one labelled check-fail
	// event: the ring records a failure once, wherever it is caught.
	out, code = runTool(t, bin, "rfvm", "-hardened", "-abort", "-events", "16",
		"-input", "40", hardPath)
	if code != 10 {
		t.Fatalf("rfvm -events detection run: exit %d, want 10\n%s", code, out)
	}
	var fails []string
	for _, line := range eventWindow(out) {
		if strings.Contains(line, "check-fail") {
			fails = append(fails, line)
		}
	}
	if len(fails) != 1 || !strings.Contains(fails[0], "check-fail   out-of-bounds write pc=") {
		t.Errorf("events window check-fail lines = %q, want one labelled out-of-bounds write\n%s", fails, out)
	}
	// -events N keeps N events even above the default ring capacity.
	loopSrc := filepath.Join(work, "loop.s")
	loopPath := filepath.Join(work, "loop.relf")
	if err := os.WriteFile(loopSrc, []byte(cliLoopProg), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runTool(t, bin, "rfasm", "-o", loopPath, loopSrc); code != 0 {
		t.Fatalf("rfasm loop: %s", out)
	}
	out, code = runTool(t, bin, "rfvm", "-events", "2000", loopPath)
	if code != 0 {
		t.Fatalf("rfvm -events 2000: %d %s", code, out)
	}
	if n := len(eventWindow(out)); n != 2000 {
		t.Errorf("-events 2000 printed %d event lines, want 2000", n)
	}
	// Memcheck runs report the same telemetry.
	out, code = runTool(t, bin, "rfvm", "-memcheck", "-stats", "-input", "2", relfPath)
	if code != 0 || !strings.Contains(out, "vm.retired.total") {
		t.Errorf("rfvm -memcheck -stats: %d %s", code, out)
	}

	// Abnormal exits summarize the recorded errors.
	out, _ = runTool(t, bin, "rfvm", "-hardened", "-abort", "-input", "40", hardPath)
	if !strings.Contains(out, "1 memory error(s) at 1 distinct site(s)") {
		t.Errorf("error summary missing: %s", out)
	}

	// -metrics on the hardening tool writes instrumentation-time counters;
	// the -analysis-report totals count the same operand fates.
	metricsPath := filepath.Join(work, "harden.json")
	analysisPath := filepath.Join(work, "analysis.json")
	out, code = runTool(t, bin, "redfat", "-o", hardPath, "-metrics", metricsPath,
		"-analysis-report", analysisPath, relfPath)
	if code != 0 {
		t.Fatalf("redfat -metrics -analysis-report: %d %s", code, out)
	}
	data, err := os.ReadFile(metricsPath)
	if err != nil || !strings.Contains(string(data), `"harden.checks": 1`) {
		t.Errorf("harden metrics file: %v %s", err, data)
	}
	var metrics struct {
		Counters map[string]int `json:"counters"`
	}
	if err := json.Unmarshal(data, &metrics); err != nil {
		t.Fatalf("harden metrics file: %v", err)
	}
	if data, err = os.ReadFile(analysisPath); err != nil {
		t.Fatal(err)
	}
	var analysis struct {
		Total map[string]any `json:"total"`
	}
	if err := json.Unmarshal(data, &analysis); err != nil {
		t.Fatalf("analysis report: %v", err)
	}
	for key, counter := range map[string]string{
		"operands":       "harden.operands",
		"elim_syntactic": "harden.eliminated",
		"elim_dominated": "harden.elim.dom",
		"checks_emitted": "harden.instrumented",
	} {
		want, ok := metrics.Counters[counter]
		if got := analysis.Total[key]; !ok || got != float64(want) {
			t.Errorf("analysis total %s = %v, metrics %s = %v (present %v)", key, got, counter, want, ok)
		}
	}

	// Disassembly shows the patch artifacts.
	out, code = runTool(t, bin, "rfdis", hardPath)
	if code != 0 || !strings.Contains(out, ".tramp") || !strings.Contains(out, "rtcall") {
		t.Fatalf("rfdis: %d %s", code, out)
	}
}

// TestCLIEventsTrace: -events is the instruction trace. Each retire in
// the window is named by its disassembly, and -max ends the run at a
// guest cycle, so the window shows how the run starts. The window is the
// run's one ring dump: a budget abort with -events prints no second,
// automatic dump, and one without -events dumps the ring once, to stderr.
func TestCLIEventsTrace(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "prog.s")
	relfPath := filepath.Join(work, "prog.relf")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, code := runTool(t, bin, "rfasm", "-o", relfPath, src); code != 0 {
		t.Fatalf("rfasm: %s", out)
	}
	out, code := runTool(t, bin, "rfvm", "-events", "16", "-max", "3", "-input", "2", relfPath)
	if code != 20 {
		t.Fatalf("rfvm -events 16 -max 3: exit %d, want 20 (cycle budget)\n%s", code, out)
	}
	var insts []string
	for _, line := range eventWindow(out) {
		if strings.Contains(line, " inst ") {
			insts = append(insts, line)
		}
	}
	if len(insts) == 0 || !strings.Contains(insts[0], "inst         mov $0x28, %rdi pc=0x") {
		t.Errorf("first inst event %q, want the disassembled mov $0x28, %%rdi\n%s", insts, out)
	}
	if n := strings.Count(out, "flight recorder:"); n != 1 {
		t.Errorf("-events budget abort printed %d ring dumps, want 1\n%s", n, out)
	}

	cmd := exec.Command(filepath.Join(bin, "rfvm"), "-max", "3", "-input", "2", relfPath)
	var stdout, stderr strings.Builder
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var ee *exec.ExitError
	if err := cmd.Run(); !errors.As(err, &ee) || ee.ExitCode() != 20 {
		t.Fatalf("rfvm -max 3: %v, want exit 20 (cycle budget)\n%s%s", err, stdout.String(), stderr.String())
	}
	if n := strings.Count(stderr.String(), "flight recorder:"); n != 1 || strings.Contains(stdout.String(), "flight recorder:") {
		t.Errorf("budget abort without -events: %d ring dumps on stderr, want 1 and none on stdout\nstdout:\n%s\nstderr:\n%s",
			n, stdout.String(), stderr.String())
	}
}

// TestCLITraceSmoke drives the forensics and profiling flags end to end:
// -forensics must print the symbolized report, -profile-guest the
// hot-site table, -folded a parseable folded-stack file, and -trace-out
// a Chrome trace-event JSON that actually parses. `make trace-smoke`
// runs exactly this test.
func TestCLITraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "prog.s")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	relfPath := filepath.Join(work, "prog.relf")
	hardPath := filepath.Join(work, "prog.hard.relf")
	if out, code := runTool(t, bin, "rfasm", "-o", relfPath, src); code != 0 {
		t.Fatal(out)
	}
	if out, code := runTool(t, bin, "redfat", "-o", hardPath, relfPath); code != 0 {
		t.Fatal(out)
	}

	// Error path: the forensic report must attribute the fault.
	out, code := runTool(t, bin, "rfvm", "-hardened", "-abort", "-forensics",
		"-forensics-json", "-input", "40", hardPath)
	if code == 0 {
		t.Fatalf("attack run not detected: %s", out)
	}
	for _, want := range []string{
		"==redfat== ERROR: out-of-bounds write",
		"280 bytes past the end of a 40-byte object",
		"allocated at main+",
		`"relation": "past-end"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("forensic output missing %q:\n%s", want, out)
		}
	}

	// Benign path: profile + folded + trace export.
	foldedPath := filepath.Join(work, "prog.folded")
	tracePath := filepath.Join(work, "trace.json")
	out, code = runTool(t, bin, "rfvm", "-hardened", "-profile-guest",
		"-profile-interval", "16", "-folded", foldedPath, "-trace-out", tracePath,
		"-input", "2", hardPath)
	if code != 0 {
		t.Fatalf("profiled run: %d %s", code, out)
	}
	if !strings.Contains(out, "guest profile:") {
		t.Errorf("hot-site table missing:\n%s", out)
	}
	folded, err := os.ReadFile(foldedPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSpace(string(folded)), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed folded line %q", line)
		}
		if _, err := strconv.ParseUint(line[i+1:], 10, 64); err != nil {
			t.Errorf("folded count in %q: %v", line, err)
		}
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("trace JSON has no events")
	}
	// -trace-out reads the flight ring at execution grain, so the
	// allocation and the retires are on the timeline.
	kinds := map[string]bool{}
	for _, raw := range doc.TraceEvents {
		var ev struct {
			Name string `json:"name"`
			Cat  string `json:"cat"`
		}
		if err := json.Unmarshal(raw, &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Cat == "event" {
			kinds[ev.Name] = true
		}
	}
	if !kinds["alloc"] || !kinds["inst"] {
		t.Errorf("trace events lack execution-grain kinds, saw %v", kinds)
	}
}

// TestCLIRunpackSmoke drives the runpack workflow end to end through the
// real tools: capture a detection run with rfvm -runpack, verify the pack,
// replay it byte-for-byte, catch a tampered member, round-trip through a
// tarball, and replay a redfat rewrite pack. `make replay-smoke` runs
// exactly this test (plus the internal/runpack tamper matrix).
func TestCLIRunpackSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "prog.s")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	relfPath := filepath.Join(work, "prog.relf")
	hardPath := filepath.Join(work, "prog.hard.relf")
	if out, code := runTool(t, bin, "rfasm", "-o", relfPath, src); code != 0 {
		t.Fatal(out)
	}
	if out, code := runTool(t, bin, "redfat", "-o", hardPath, relfPath); code != 0 {
		t.Fatal(out)
	}

	// Detection run: packed, and the stable exit code names the kind.
	packDir := filepath.Join(work, "pack")
	out, code := runTool(t, bin, "rfvm", "-hardened", "-abort", "-runpack", packDir,
		"-input", "40", hardPath)
	if code != 10 {
		t.Fatalf("attack run exit = %d, want 10 (OOB write): %s", code, out)
	}
	// Benign run: exit 0.
	if out, code := runTool(t, bin, "rfvm", "-hardened", "-input", "2", hardPath); code != 0 {
		t.Fatalf("benign run exit = %d: %s", code, out)
	}

	out, code = runTool(t, bin, "rfpack", "verify", packDir)
	if code != 0 || !strings.Contains(out, "verified OK") {
		t.Fatalf("rfpack verify: %d %s", code, out)
	}
	out, code = runTool(t, bin, "rfpack", "replay", packDir)
	if code != 0 || !strings.Contains(out, "byte-identical") {
		t.Fatalf("rfpack replay: %d %s", code, out)
	}
	out, code = runTool(t, bin, "rfpack", "show", packDir)
	if code != 0 || !strings.Contains(out, `"kind": "run"`) {
		t.Fatalf("rfpack show: %d %s", code, out)
	}

	// Deterministic tarball round-trip.
	tgz := filepath.Join(work, "pack.tgz")
	if out, code := runTool(t, bin, "rfpack", "tar", packDir, tgz); code != 0 {
		t.Fatalf("rfpack tar: %d %s", code, out)
	}
	if out, code := runTool(t, bin, "rfpack", "verify", tgz); code != 0 {
		t.Fatalf("rfpack verify tarball: %d %s", code, out)
	}

	// A flipped byte in the packed reports fails verification with the
	// documented digest-mismatch code.
	reports := filepath.Join(packDir, "reports.json")
	data, err := os.ReadFile(reports)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(reports, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out, code = runTool(t, bin, "rfpack", "verify", packDir)
	if code != 3 {
		t.Fatalf("tampered verify exit = %d, want 3: %s", code, out)
	}

	// Rewrite packs replay too: re-hardening reproduces the image.
	rwDir := filepath.Join(work, "rwpack")
	if out, code := runTool(t, bin, "redfat", "-o", hardPath, "-runpack", rwDir, relfPath); code != 0 {
		t.Fatalf("redfat -runpack: %d %s", code, out)
	}
	out, code = runTool(t, bin, "rfpack", "replay", rwDir)
	if code != 0 || !strings.Contains(out, "byte-identical") {
		t.Fatalf("rewrite replay: %d %s", code, out)
	}
}

// TestCLIBenchJSON drives rfbench -json end to end: the document it
// writes for Table 2 parses at schema version 1, holds the nine rows with
// the counts the text table prints, and carries the run's telemetry.
func TestCLIBenchJSON(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	path := filepath.Join(t.TempDir(), "out.json")
	out, code := runTool(t, bin, "rfbench", "-table2", "-progress=false", "-json", path)
	if code != 0 {
		t.Fatalf("rfbench -json: %d %s", code, out)
	}
	// The text rows of Table 2 proper: those before the temporal extension.
	text, _, _ := strings.Cut(out, "--- extension")
	row := regexp.MustCompile(`(?m)^(.+?) +Memcheck +(\d+)/(\d+) \(.*\) +RedFat +(\d+)/(\d+) \(`)
	var printed []string
	for _, m := range row.FindAllStringSubmatch(text, -1) {
		if m[3] != m[5] {
			t.Errorf("%s: Memcheck and RedFat totals differ: %s", m[1], m[0])
		}
		printed = append(printed, fmt.Sprintf("%s %s/%s/%s", m[1], m[3], m[2], m[4]))
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc bench.Results
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("rfbench -json wrote invalid JSON: %v", err)
	}
	if doc.SchemaVersion != 1 {
		t.Errorf("schema_version = %d, want 1", doc.SchemaVersion)
	}
	var written []string
	for _, r := range doc.Table2 {
		written = append(written, fmt.Sprintf("%s %d/%d/%d", r.ID, r.Total, r.Memcheck, r.RedFat))
	}
	if len(written) != 9 || strings.Join(written, "\n") != strings.Join(printed, "\n") {
		t.Errorf("table2 rows (id total/memcheck/redfat):\n%s\nwant the 9 the text table prints:\n%s",
			strings.Join(written, "\n"), strings.Join(printed, "\n"))
	}
	if tel := doc.Telemetry; tel == nil || len(tel.Counters) == 0 {
		t.Errorf("telemetry snapshot is empty: %+v", tel)
	}
}

// TestCLIRejectsHeapModesWithoutRedFatHeap checks that rfvm refuses the
// allocator modes on a run that does not use the RedFat heap, before
// running anything or writing a pack.
func TestCLIRejectsHeapModesWithoutRedFatHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "prog.s")
	if err := os.WriteFile(src, []byte(cliProg), 0o644); err != nil {
		t.Fatal(err)
	}
	relfPath := filepath.Join(work, "prog.relf")
	if out, code := runTool(t, bin, "rfasm", "-o", relfPath, src); code != 0 {
		t.Fatal(out)
	}
	for _, mode := range [][]string{
		{"-canary", "-quarantine", "4096"},
		{"-underalloc", "8"},
		{"-memcheck", "-quarantine", "-1"},
	} {
		packDir := filepath.Join(work, "pack-"+strings.TrimPrefix(mode[len(mode)-1], "-"))
		args := append(append(mode, "-runpack", packDir, "-input", "2"), relfPath)
		out, code := runTool(t, bin, "rfvm", args...)
		if code != 1 || !strings.Contains(out, "require -hardened") {
			t.Errorf("rfvm %v: exit %d, want 1: %s", mode, code, out)
		}
		if _, err := os.Stat(packDir); !os.IsNotExist(err) {
			t.Errorf("rfvm %v wrote a pack (%v)", mode, err)
		}
	}
}

// obsProg is a hot hardened loop: enough iterations to compile a trace
// at a low threshold, a checked store inside it, and a RET that ends the
// trace with a halt deopt — so every introspection surface is non-empty.
const obsProg = `
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    mov $0, %rcx
loop:
    mov %rcx, (%rbx)
    add $1, %rcx
    cmp $200, %rcx
    jl loop
    mov $0, %rax
    ret
`

// TestCLIObsSmoke scrapes a live rfvm -listen process: it parses the
// bound address off stderr, waits for the run-complete marker, then hits
// all five introspection endpoints and checks each serves its documented
// format with real run data (stripped metrics, a compiled trace with a
// deopt histogram, a populated flight ring). `make obs-smoke` runs
// exactly this test plus the internal/obs golden suite.
func TestCLIObsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	src := filepath.Join(work, "prog.s")
	if err := os.WriteFile(src, []byte(obsProg), 0o644); err != nil {
		t.Fatal(err)
	}
	relfPath := filepath.Join(work, "prog.relf")
	hardPath := filepath.Join(work, "prog.hard.relf")
	if out, code := runTool(t, bin, "rfasm", "-o", relfPath, src); code != 0 {
		t.Fatal(out)
	}
	if out, code := runTool(t, bin, "redfat", "-o", hardPath, relfPath); code != 0 {
		t.Fatal(out)
	}

	cmd := exec.Command(filepath.Join(bin, "rfvm"),
		"-hardened", "-stats", "-jit-threshold", "2", "-listen", "127.0.0.1:0", hardPath)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// The server announces its bound address, then the run-complete
	// marker once the guest has finished and the final state is published.
	var addr string
	ready := false
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "rfvm: listening on http://"); ok {
			addr = rest
		}
		if strings.Contains(line, "run complete; serving introspection") {
			ready = true
			break
		}
	}
	if !ready || addr == "" {
		t.Fatalf("no listen/ready markers on stderr (addr %q, err %v)", addr, sc.Err())
	}

	get := func(path string) []byte {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, %v: %s", path, resp.StatusCode, err, body)
		}
		return body
	}

	metrics := string(get("/metrics"))
	if !strings.Contains(metrics, "# TYPE redfat_vm_retired_total counter") {
		t.Errorf("/metrics is not Prometheus exposition:\n%s", metrics)
	}
	if strings.Contains(metrics, "_ns ") || strings.Contains(metrics, "_ms ") {
		t.Errorf("/metrics leaks host wall-clock series:\n%s", metrics)
	}
	if !strings.Contains(metrics, "redfat_vm_jit_deopt_halt_count") {
		t.Errorf("/metrics missing the per-reason deopt counters:\n%s", metrics)
	}

	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(get("/snapshot"), &snap); err != nil {
		t.Fatalf("/snapshot does not parse: %v", err)
	}
	if snap.Counters["vm.retired.total"] == 0 || snap.Counters["check.execs"] == 0 {
		t.Errorf("/snapshot counters empty: %v", snap.Counters)
	}

	var table struct {
		SchemaVersion int `json:"schema_version"`
		Traces        []struct {
			Symbol  string `json:"symbol"`
			Entries uint64 `json:"entries"`
			Deopts  []struct {
				Reason string `json:"reason"`
				Count  uint64 `json:"count"`
			} `json:"deopts"`
		} `json:"traces"`
	}
	if err := json.Unmarshal(get("/traces"), &table); err != nil {
		t.Fatalf("/traces does not parse: %v", err)
	}
	if len(table.Traces) == 0 {
		t.Fatal("/traces empty after a hot loop at threshold 2")
	}
	if tr := table.Traces[0]; tr.Entries == 0 || len(tr.Deopts) == 0 ||
		!strings.HasPrefix(tr.Symbol, "main") {
		t.Errorf("/traces row lacks run data: %+v", tr)
	}

	// Guest profiling pins execution to tier 0, so it is off by default
	// under -listen: /profile must answer, but empty.
	if profile := get("/profile"); len(profile) != 0 {
		t.Errorf("/profile non-empty without -profile-guest: %q", profile)
	}

	var dump struct {
		Total  uint64 `json:"total"`
		Events []struct {
			Kind string `json:"kind"`
		} `json:"events"`
	}
	if err := json.Unmarshal(get("/flight"), &dump); err != nil {
		t.Fatalf("/flight does not parse: %v", err)
	}
	if dump.Total == 0 || len(dump.Events) == 0 {
		t.Errorf("/flight ring empty after the run: %+v", dump)
	}
	kinds := map[string]bool{}
	for _, e := range dump.Events {
		kinds[e.Kind] = true
	}
	if !kinds["trace-enter"] || !kinds["deopt"] {
		t.Errorf("/flight missing tier events, saw kinds %v", kinds)
	}

	// A second process with explicit profiling serves the folded
	// flamegraph (and, being pinned to tier 0, an empty trace table).
	cmd2 := exec.Command(filepath.Join(bin, "rfvm"),
		"-hardened", "-profile-guest", "-profile-interval", "16",
		"-listen", "127.0.0.1:0", hardPath)
	stderr2, err := cmd2.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd2.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd2.Process.Kill()
		cmd2.Wait()
	}()
	addr = ""
	ready = false
	sc = bufio.NewScanner(stderr2)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "rfvm: listening on http://"); ok {
			addr = rest
		}
		if strings.Contains(line, "run complete; serving introspection") {
			ready = true
			break
		}
	}
	if !ready || addr == "" {
		t.Fatalf("profiled process: no listen/ready markers (addr %q, err %v)", addr, sc.Err())
	}
	profile := strings.TrimSpace(string(get("/profile")))
	if profile == "" {
		t.Fatal("/profile empty with -profile-guest")
	}
	for _, line := range strings.Split(profile, "\n") {
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed folded profile line %q", line)
		}
		if _, err := strconv.ParseUint(line[i+1:], 10, 64); err != nil {
			t.Errorf("folded count in %q: %v", line, err)
		}
	}
}

// TestCLIProfileWorkflow drives rfprofile end to end, including the
// fuzz-boosted variant.
func TestCLIProfileWorkflow(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	// The anti-idiom program: naive hardening false-positives on it.
	src := `
.func main
    mov $128, %rdi
    call @malloc
    mov %rax, %rbx
    sub $64, %rbx
    call @rf_input
    mov $1, %rcx
    movb %rcx, (%rbx,%rax,1)
    mov $0, %rax
    ret
`
	srcPath := filepath.Join(work, "anti.s")
	if err := os.WriteFile(srcPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	relfPath := filepath.Join(work, "anti.relf")
	allowPath := filepath.Join(work, "allow.lst")
	hardPath := filepath.Join(work, "anti.hard.relf")

	if out, code := runTool(t, bin, "rfasm", "-o", relfPath, srcPath); code != 0 {
		t.Fatal(out)
	}
	out, code := runTool(t, bin, "rfprofile",
		"-tests", "64;100;190", "-allowlist", allowPath, "-harden", hardPath, relfPath)
	if code != 0 {
		t.Fatalf("rfprofile: %s", out)
	}
	data, err := os.ReadFile(allowPath)
	if err != nil || !strings.HasPrefix(string(data), "redfat-allowlist v1") {
		t.Fatalf("allow-list file: %v %q", err, data)
	}
	// The production binary runs the anti-idiom input cleanly.
	out, code = runTool(t, bin, "rfvm", "-hardened", "-abort", "-input", "70", hardPath)
	if code != 0 || strings.Contains(out, "detected") {
		t.Fatalf("production run false-positived: %s", out)
	}
	// Fuzz-boosted variant also works.
	out, code = runTool(t, bin, "rfprofile",
		"-tests", "64", "-fuzz", "30", "-allowlist", allowPath, relfPath)
	if code != 0 || !strings.Contains(out, "fuzzing:") {
		t.Fatalf("rfprofile -fuzz: %d %s", code, out)
	}
}

// TestCLIGen exercises rfgen and feeds one generated binary back through
// the pipeline.
// TestCLIEdgeAuditSmoke drives the indirect-edge audit end to end: emit
// the switch-dense corpus and the broken-jump-table negative corpus with
// rfgen, audit every original with rfverify -edges (the adversarial
// binaries pass by staying Unknown — no claims, nothing unsound), and
// run full translation validation on the marker-built benchmarks under
// both -noindirect settings. `make edge-audit-smoke` runs exactly this
// test plus the seeded unsound-edge mutant suite in internal/verify.
func TestCLIEdgeAuditSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	if out, code := runTool(t, bin, "rfgen", "-switch", "-o", work); code != 0 {
		t.Fatalf("rfgen -switch: %d %s", code, out)
	}
	if out, code := runTool(t, bin, "rfgen", "-adversarial", "-o", work); code != 0 {
		t.Fatalf("rfgen -adversarial: %d %s", code, out)
	}
	for _, name := range []string{"interp", "fsm", "jtoverclaim", "jtunaligned", "jtdecoy"} {
		orig := filepath.Join(work, name+".relf")
		if out, code := runTool(t, bin, "rfverify", "-edges", orig); code != 0 {
			t.Errorf("rfverify -edges %s: %d %s", name, code, out)
		}
	}
	for _, name := range []string{"interp", "fsm"} {
		orig := filepath.Join(work, name+".relf")
		for _, noind := range []string{"-noindirect=false", "-noindirect=true"} {
			hard := filepath.Join(work, name+".hard.relf")
			if out, code := runTool(t, bin, "redfat", noind, "-o", hard, orig); code != 0 {
				t.Fatalf("redfat %s %s: %d %s", noind, name, code, out)
			}
			if out, code := runTool(t, bin, "rfverify", "-orig", orig, hard); code != 0 {
				t.Errorf("rfverify -orig %s (%s): %d %s", name, noind, code, out)
			}
		}
	}
}

func TestCLIGen(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the CLI tools")
	}
	bin := buildTools(t)
	work := t.TempDir()
	out, code := runTool(t, bin, "rfgen", "-cve", "-o", work)
	if code != 0 || !strings.Contains(out, "wrote 4 binaries") {
		t.Fatalf("rfgen: %d %s", code, out)
	}
	cve := filepath.Join(work, "CVE-2012-4295.relf")
	hard := filepath.Join(work, "CVE-2012-4295.hard.relf")
	if out, code := runTool(t, bin, "redfat", "-o", hard, cve); code != 0 {
		t.Fatal(out)
	}
	// The stored attack input triggers detection.
	input, err := os.ReadFile(filepath.Join(work, "CVE-2012-4295.input"))
	if err != nil {
		t.Fatal(err)
	}
	vals := strings.ReplaceAll(strings.TrimSpace(string(input)), "\n", ",")
	out, code = runTool(t, bin, "rfvm", "-hardened", "-abort", "-input", vals, hard)
	if code == 0 || !strings.Contains(out, "out-of-bounds") {
		t.Fatalf("CVE not detected via CLI: %d %s", code, out)
	}
}
