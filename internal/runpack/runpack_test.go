package runpack

import (
	"archive/tar"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"redfat"
	"redfat/internal/juliet"
	"redfat/internal/rtlib"
	"redfat/internal/vm"
)

// hardenCase assembles one Juliet/CVE case and hardens it under opt.
func hardenCase(t *testing.T, c *juliet.Case, opt redfat.Options) (orig, hard *redfat.Binary, rep *redfat.Report) {
	t.Helper()
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, r, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatal(err)
	}
	return bin, h, r
}

// makeRunPack executes a hardened detection case with forensics and the
// flight recorder on and packs the run into a fresh directory.
func makeRunPack(t *testing.T) (dir string, res *redfat.Result, runErr error) {
	t.Helper()
	c := juliet.CVECases()[0]
	_, hard, _ := hardenCase(t, c, redfat.Defaults())
	cfg := rtlib.RunConfig{Input: juliet.Trigger(c), Hardened: true, Forensics: true,
		Flight: redfat.NewFlight(0)}
	res, runErr = redfat.Run(hard, cfg)
	if res == nil {
		t.Fatalf("run produced no result: %v", runErr)
	}
	if len(res.Errors) == 0 {
		t.Fatal("detection case detected nothing; tamper tests need reports")
	}
	hardData, err := hard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir = filepath.Join(t.TempDir(), "pack")
	if err := PackRun(dir, []string{"-hardened", "prog.relf"}, hardData, hard, cfg, res, runErr); err != nil {
		t.Fatal(err)
	}
	return dir, res, runErr
}

func TestRunPackVerifiesAndReplaysByteIdentical(t *testing.T) {
	dir, res, _ := makeRunPack(t)
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Verify(p)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
	}
	if man.Kind != KindRun || man.Run == nil || man.Knobs == nil {
		t.Fatalf("manifest incomplete: kind=%q run=%v knobs=%v", man.Kind, man.Run, man.Knobs)
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
	if rep.ReplayCycles != res.Cycles || rep.PackedCycles != res.Cycles {
		t.Fatalf("cycles: packed %d, replay %d, run %d", rep.PackedCycles, rep.ReplayCycles, res.Cycles)
	}
	if rep.ReplayExit != rep.PackedExit {
		t.Fatalf("exit: packed %d, replay %d", rep.PackedExit, rep.ReplayExit)
	}
	// The reports must have been part of the byte comparison.
	found := false
	for _, name := range rep.Compared {
		if name == MemberReports {
			found = true
		}
	}
	if !found {
		t.Fatalf("reports.json not compared (compared %v)", rep.Compared)
	}
}

// TestRunSpecRecordsJITConfig packs a run under a non-default superblock
// configuration, checks the tier knobs round-trip through the sealed
// manifest, replays byte-identically under them, and rejects a tampered
// tier field (the seal covers the run spec).
func TestRunSpecRecordsJITConfig(t *testing.T) {
	c := juliet.CVECases()[0]
	_, hard, _ := hardenCase(t, c, redfat.Defaults())
	cfg := rtlib.RunConfig{Input: juliet.Trigger(c), Hardened: true, Forensics: true,
		Knobs: rtlib.Knobs{JITThreshold: 2}}
	res, runErr := redfat.Run(hard, cfg)
	if res == nil {
		t.Fatalf("run produced no result: %v", runErr)
	}
	hardData, err := hard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "pack")
	if err := PackRun(dir, []string{"-hardened", "-jit-threshold", "2", "prog.relf"},
		hardData, hard, cfg, res, runErr); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
	}
	if man.Run == nil || man.Run.NoJIT || man.Run.JITThreshold != 2 {
		t.Fatalf("tier config did not round-trip: %+v", man.Run)
	}
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
	// Flipping the recorded tier config must break the manifest seal.
	tamperRecordedKnobs(t, dir)
}

// TestRunSpecRecordsLibcAndAllocatorModes packs a libc-span detection run
// under non-default hardening modes, checks the knobs round-trip through
// the sealed manifest, replays byte-identically under them (the knobs are
// guest-visible: replay without them would diverge), and rejects tampered
// mode fields.
func TestRunSpecRecordsLibcAndAllocatorModes(t *testing.T) {
	c := juliet.LibcCases()[0] // OOB through memcpy: only the span check sees it
	_, hard, _ := hardenCase(t, c, redfat.Defaults())
	cfg := rtlib.RunConfig{Input: juliet.Trigger(c), Hardened: true,
		Knobs: rtlib.Knobs{QuarantineBytes: 4096, Canary: true, UnderAllocEvery: 64}}
	res, runErr := redfat.Run(hard, cfg)
	if res == nil {
		t.Fatalf("run produced no result: %v", runErr)
	}
	if len(res.Errors) == 0 {
		t.Fatal("span check missed the libc overflow; replay test needs a detection")
	}
	hardData, err := hard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "pack")
	if err := PackRun(dir, []string{"-hardened", "-canary", "prog.relf"},
		hardData, hard, cfg, res, runErr); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
	}
	if man.Run == nil || man.Run.NoLibcCheck || !man.Run.Canary ||
		man.Run.QuarantineBytes != 4096 || man.Run.UnderAllocEvery != 64 {
		t.Fatalf("mode config did not round-trip: %+v", man.Run)
	}
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
	// Flipping any recorded mode knob must break the manifest seal.
	tamperRecordedKnobs(t, dir)
}

// TestRunSpecNoLibcCheckIdentity packs the same libc overflow case with
// the span intrinsics disabled: the run must detect nothing, and replay
// must restore the knob (replaying with checks on would re-detect and
// diverge).
func TestRunSpecNoLibcCheckIdentity(t *testing.T) {
	c := juliet.LibcCases()[0]
	_, hard, _ := hardenCase(t, c, redfat.Defaults())
	cfg := rtlib.RunConfig{Input: juliet.Trigger(c), Hardened: true, Knobs: rtlib.Knobs{NoLibcCheck: true}}
	res, runErr := redfat.Run(hard, cfg)
	if res == nil {
		t.Fatalf("run produced no result: %v", runErr)
	}
	if len(res.Errors) != 0 {
		t.Fatalf("libc checks disabled but run still detected: %v", res.Errors)
	}
	hardData, err := hard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "pack")
	if err := PackRun(dir, []string{"-hardened", "-nolibccheck", "prog.relf"},
		hardData, hard, cfg, res, runErr); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
	}
	if man.Run == nil || !man.Run.NoLibcCheck {
		t.Fatalf("no_libc_check did not round-trip: %+v", man.Run)
	}
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
}

// heapReuseSrc allocates eight 24-byte objects, frees them in order and
// returns how far the next 24-byte allocation lands from the first one.
// With the quarantine off the freed slots are reused at once: LIFO by
// default, a random pick under heap randomization.
const heapReuseSrc = `
.data
ptrs:
.zero 64
.text
.func main
    mov $0, %r12
alloc:
    mov $24, %rdi
    call @malloc
    mov $ptrs, %rbx
    mov %rax, (%rbx,%r12,8)
    add $1, %r12
    cmp $8, %r12
    jl alloc
    mov $0, %r12
release:
    mov $ptrs, %rbx
    mov (%rbx,%r12,8), %rdi
    call @free
    add $1, %r12
    cmp $8, %r12
    jl release
    mov $24, %rdi
    call @malloc
    mov $ptrs, %rbx
    sub (%rbx), %rax
    ret
`

// TestRunSpecRecordsRandomizedHeap packs a run whose result depends on
// heap randomization: the manifest must record randomize_heap, the pack
// must replay byte-identically, and its result must differ from the same
// run without randomization (so replay cannot pass by ignoring the
// field).
func TestRunSpecRecordsRandomizedHeap(t *testing.T) {
	bin, err := redfat.Assemble(heapReuseSrc)
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hardData, err := hard.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	pack := func(randomize bool) string {
		t.Helper()
		cfg := rtlib.RunConfig{Hardened: true, RandomizeHeap: randomize,
			Knobs: rtlib.Knobs{QuarantineBytes: -1}}
		res, runErr := redfat.Run(hard, cfg)
		if runErr != nil {
			t.Fatalf("run (randomize=%v): %v", randomize, runErr)
		}
		dir := filepath.Join(t.TempDir(), "pack")
		if err := PackRun(dir, []string{"-hardened", "prog.relf"}, hardData, hard, cfg, res, nil); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	dir := pack(true)
	manData, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(manData, []byte(`"randomize_heap": true`)) {
		t.Fatalf("manifest does not record randomize_heap:\n%s", manData)
	}
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Verify(p)
	if err != nil {
		t.Fatalf("clean pack failed verify: %v", err)
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
	randomized, err := os.ReadFile(filepath.Join(dir, MemberResult))
	if err != nil {
		t.Fatal(err)
	}
	plain, err := os.ReadFile(filepath.Join(pack(false), MemberResult))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(randomized, plain) {
		t.Fatalf("heap randomization did not change the result; the test cannot tell a replay that drops it:\n%s", plain)
	}
}

func TestRewritePackReplayAcrossKnobMatrix(t *testing.T) {
	base := redfat.Defaults()
	o0 := base
	o0.Elim, o0.Batch, o0.Merge, o0.ElimDom = false, false, false, false
	noLowFat := base
	noLowFat.LowFat = false
	noReads := base
	noReads.CheckReads = false
	knobs := []struct {
		name string
		opt  redfat.Options
	}{
		{"defaults", base},
		{"O0", o0},
		{"redzone-only", noLowFat},
		{"write-only", noReads},
	}
	c := juliet.CVECases()[0]
	for _, k := range knobs {
		t.Run(k.name, func(t *testing.T) {
			orig, hard, rep := hardenCase(t, c, k.opt)
			origData, err := orig.Marshal()
			if err != nil {
				t.Fatal(err)
			}
			dir := filepath.Join(t.TempDir(), "pack")
			if err := PackRewrite(dir, []string{"-o", "out.relf"}, origData, hard, k.opt, nil, rep); err != nil {
				t.Fatal(err)
			}
			man, err := VerifyPath(dir)
			if err != nil {
				t.Fatalf("clean %s pack failed verify: %v", k.name, err)
			}
			p, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			rr, err := Replay(p, man)
			if err != nil {
				t.Fatalf("replay: %v", err)
			}
			if !rr.Identical() {
				t.Fatalf("re-hardening diverged in %v", rr.Mismatched)
			}
		})
	}
}

// tamper clones the pack directory and applies one mutation, so every
// subtest starts from the same sealed pack.
func tamper(t *testing.T, src string, mutate func(t *testing.T, dir string)) string {
	t.Helper()
	dst := filepath.Join(t.TempDir(), "tampered")
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	mutate(t, dst)
	return dst
}

func TestVerifyDetectsTampering(t *testing.T) {
	dir, _, _ := makeRunPack(t)
	if _, err := VerifyPath(dir); err != nil {
		t.Fatalf("pristine pack must verify before tampering: %v", err)
	}
	cases := []struct {
		name   string
		want   int
		mutate func(t *testing.T, dir string)
	}{
		{"flipped-report-byte", ExitBadDigest, func(t *testing.T, dir string) {
			path := filepath.Join(dir, MemberReports)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"flipped-flight-byte", ExitBadDigest, func(t *testing.T, dir string) {
			path := filepath.Join(dir, MemberFlight)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			data[len(data)/2] ^= 0x01
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"truncated-member", ExitBadDigest, func(t *testing.T, dir string) {
			path := filepath.Join(dir, MemberBinary)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)-7], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"edited-manifest", ExitBadManifest, func(t *testing.T, dir string) {
			path := filepath.Join(dir, ManifestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			edited := bytes.Replace(data, []byte(`"kind": "run"`), []byte(`"kind": "ran"`), 1)
			if bytes.Equal(edited, data) {
				t.Fatal("manifest edit did not apply")
			}
			if err := os.WriteFile(path, edited, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"edited-seal-digest", ExitBadManifest, func(t *testing.T, dir string) {
			path := filepath.Join(dir, DigestName)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip one hex digit of the seal without breaking its format.
			i := bytes.IndexByte(data, ' ') + 1
			if data[i] == '0' {
				data[i] = '1'
			} else {
				data[i] = '0'
			}
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"renamed-member", ExitMissing, func(t *testing.T, dir string) {
			if err := os.Rename(filepath.Join(dir, MemberResult),
				filepath.Join(dir, "renamed.json")); err != nil {
				t.Fatal(err)
			}
		}},
		{"deleted-member", ExitMissing, func(t *testing.T, dir string) {
			if err := os.Remove(filepath.Join(dir, MemberResult)); err != nil {
				t.Fatal(err)
			}
		}},
		{"smuggled-extra-file", ExitMissing, func(t *testing.T, dir string) {
			if err := os.WriteFile(filepath.Join(dir, "extra.bin"), []byte("x"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := VerifyPath(tamper(t, dir, tc.mutate))
			if err == nil {
				t.Fatal("tampered pack verified clean")
			}
			if got := ExitCode(err); got != tc.want {
				t.Fatalf("exit code %d (%v), want %d", got, err, tc.want)
			}
		})
	}
}

// TestFlightIsHostOnly pins the observability knobs outside the replay
// contract: flight.json is sealed in the pack (the tamper matrix covers
// it) but the replay spec carries no flight or listen field, so replay —
// which runs without any recorder or server attached — still reproduces
// the packed result byte-for-byte and never re-derives the flight dump.
func TestFlightIsHostOnly(t *testing.T) {
	dir, _, _ := makeRunPack(t)
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	man, err := Verify(p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.ReadMember(MemberFlight); err != nil {
		t.Fatalf("flight.json not packed: %v", err)
	}
	specJSON, err := json.Marshal(man.Run)
	if err != nil {
		t.Fatal(err)
	}
	for _, knob := range []string{"flight", "listen"} {
		if strings.Contains(strings.ToLower(string(specJSON)), knob) {
			t.Errorf("run spec leaks host-only knob %q: %s", knob, specJSON)
		}
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("replay diverged in %v", rep.Mismatched)
	}
	for _, name := range rep.Compared {
		if name == MemberFlight {
			t.Fatal("replay re-derived flight.json; it must stay un-replayed")
		}
	}
}

func TestVerifyRejectsUnknownSchema(t *testing.T) {
	dir, _, _ := makeRunPack(t)
	// A future-schema pack with an intact seal must fail on the schema
	// check specifically, not on the seal: re-sign the edited manifest the
	// way a newer tool would.
	bad := tamper(t, dir, func(t *testing.T, dir string) {
		path := filepath.Join(dir, ManifestName)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		edited := bytes.Replace(data, []byte(`"schema_version": 1`), []byte(`"schema_version": 999`), 1)
		if bytes.Equal(edited, data) {
			t.Fatal("schema edit did not apply")
		}
		if err := os.WriteFile(path, edited, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := resign(dir, edited); err != nil {
			t.Fatal(err)
		}
	})
	_, err := VerifyPath(bad)
	if got := ExitCode(err); got != ExitBadSchema {
		t.Fatalf("exit code %d (%v), want %d", got, err, ExitBadSchema)
	}
}

// resign rewrites runpack.digest over edited manifest bytes (what a
// hostile editor covering their tracks, or a future tool, would do).
func resign(dir string, manData []byte) error {
	sum := sha256.Sum256(manData)
	line := digestPrefix + " " + hex.EncodeToString(sum[:]) + "\n"
	return os.WriteFile(filepath.Join(dir, DigestName), []byte(line), 0o644)
}

func TestTarRoundtrip(t *testing.T) {
	dir, _, _ := makeRunPack(t)
	var a, b bytes.Buffer
	if err := Tar(dir, &a); err != nil {
		t.Fatal(err)
	}
	if err := Tar(dir, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("Tar is not deterministic: two runs differ")
	}
	path := filepath.Join(t.TempDir(), "pack.tgz")
	if err := os.WriteFile(path, a.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(path)
	if err != nil {
		t.Fatalf("tarball failed verify: %v", err)
	}
	p, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(p, man)
	if err != nil {
		t.Fatalf("replay from tarball: %v", err)
	}
	if !rep.Identical() {
		t.Fatalf("tarball replay diverged in %v", rep.Mismatched)
	}
}

// TestReplayRefusesUnknownKind seals a pack of a kind replay does not
// know, as a bench pack written by an older rfbench is: the pack
// verifies, and replay refuses it with the usage code, naming the kind.
func TestReplayRefusesUnknownKind(t *testing.T) {
	dir := t.TempDir()
	b, err := NewBuilder(dir, "bench", "rfbench", []string{"-table2"})
	if err != nil {
		t.Fatal(err)
	}
	b.AddBytes("bench.json", []byte(`{"schema_version": 1}`+"\n"))
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	man, err := VerifyPath(dir)
	if err != nil {
		t.Fatalf("bench pack failed verify: %v", err)
	}
	p, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Replay(p, man)
	if got := ExitCode(err); got != ExitUsage || rep != nil {
		t.Fatalf("replay of a bench pack: exit code %d (%v), report %v; want %d", got, err, rep, ExitUsage)
	}
	if !strings.Contains(err.Error(), `"bench"`) {
		t.Errorf("refusal does not name the kind: %v", err)
	}
}

func TestBuilderRejectsBadMemberNames(t *testing.T) {
	for _, name := range []string{"", "a/b", `a\b`, ManifestName, DigestName} {
		b, err := NewBuilder(t.TempDir(), KindRun, "test", nil)
		if err != nil {
			t.Fatal(err)
		}
		b.AddBytes(name, []byte("x"))
		if err := b.Seal(); err == nil {
			t.Errorf("member name %q accepted", name)
		}
	}
	b, err := NewBuilder(t.TempDir(), KindRun, "test", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.AddBytes("dup.bin", []byte("x"))
	b.AddBytes("dup.bin", []byte("y"))
	if err := b.Seal(); err == nil || !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate member not rejected: %v", err)
	}
}

func TestRunExitCodes(t *testing.T) {
	kindCases := []struct {
		kind vm.MemErrorKind
		want int
	}{
		{vm.ErrOOBWrite, ExitDetectOOBWrite},
		{vm.ErrOOBRead, ExitDetectOOBRead},
		{vm.ErrUseAfterFree, ExitDetectUAF},
		{vm.ErrCorruptMeta, ExitDetectCorruptMeta},
		{vm.ErrInvalidFree, ExitDetectInvalidFree},
	}
	for _, tc := range kindCases {
		if got := RunExit(0, []vm.MemError{{Kind: tc.kind}}, nil); got != tc.want {
			t.Errorf("RunExit(%v) = %d, want %d", tc.kind, got, tc.want)
		}
		// A detection surfaced only through the abort error maps the same.
		if got := RunExit(0, nil, &vm.MemError{Kind: tc.kind}); got != tc.want {
			t.Errorf("RunExit(err %v) = %d, want %d", tc.kind, got, tc.want)
		}
	}
	if got := RunExit(0, nil, &vm.CycleLimitError{Cycles: 7}); got != ExitCycleBudget {
		t.Errorf("cycle budget exit = %d, want %d", got, ExitCycleBudget)
	}
	if got := RunExit(0, nil, os.ErrClosed); got != ExitToolError {
		t.Errorf("generic error exit = %d, want %d", got, ExitToolError)
	}
	if got := RunExit(0, nil, nil); got != ExitOK {
		t.Errorf("clean exit = %d, want 0", got)
	}
	if got := RunExit(42, nil, nil); got != 42 {
		t.Errorf("guest exit passthrough = %d, want 42", got)
	}
	if got := RunExit(0x1FF, nil, nil); got != 0x7F {
		t.Errorf("guest exit mask = %d, want %d", got, 0x7F)
	}
	// Detections take precedence over the guest code.
	if got := RunExit(42, []vm.MemError{{Kind: vm.ErrOOBRead}}, nil); got != ExitDetectOOBRead {
		t.Errorf("detection precedence = %d, want %d", got, ExitDetectOOBRead)
	}
}

// tarGz gzips a tarball of the given name/content members, in order.
func tarGz(t testing.TB, members ...[2]string) []byte {
	t.Helper()
	var buf bytes.Buffer
	gz := gzip.NewWriter(&buf)
	tw := tar.NewWriter(gz)
	for _, m := range members {
		hdr := &tar.Header{Name: m[0], Mode: 0o644, Size: int64(len(m[1])), Typeflag: tar.TypeReg}
		if err := tw.WriteHeader(hdr); err != nil {
			t.Fatal(err)
		}
		if _, err := tw.Write([]byte(m[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// oversizedTarball is a gzipped tarball holding only the header of a
// member one byte over maxMemberSize: the reader must refuse the member
// before reading its content.
func oversizedTarball(t testing.TB) []byte {
	t.Helper()
	var raw, buf bytes.Buffer
	hdr := &tar.Header{Name: "binary.relf", Mode: 0o644, Size: maxMemberSize + 1, Typeflag: tar.TypeReg}
	if err := tar.NewWriter(&raw).WriteHeader(hdr); err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(&buf)
	if _, err := gz.Write(raw.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sealedTarball is the tarball of a small sealed pack.
func sealedTarball(t testing.TB) []byte {
	t.Helper()
	dir := t.TempDir()
	b, err := NewBuilder(dir, KindRun, "rfvm", nil)
	if err != nil {
		t.Fatal(err)
	}
	b.AddBytes(MemberResult, []byte("{}\n"))
	if err := b.Seal(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Tar(dir, &buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOpenTarRejectsMalformed: a tarball whose members share a base
// name, whose member exceeds maxMemberSize, or whose gzip stream is cut
// short is refused with a *VerifyError carrying its exit code, while the
// whole tarball of a sealed pack verifies.
func TestOpenTarRejectsMalformed(t *testing.T) {
	valid := sealedTarball(t)
	cases := []struct {
		name string
		data []byte
		want int
	}{
		{"duplicate-base-name", tarGz(t, [2]string{"a/x.bin", "1"}, [2]string{"b/x.bin", "2"}), ExitMissing},
		{"oversized-member", oversizedTarball(t), ExitBadDigest},
		{"truncated-gzip", valid[:len(valid)/2], ExitBadDigest},
		{"not-gzip", []byte("manifest.json"), ExitBadDigest},
	}
	for _, tc := range cases {
		_, err := openTar(bytes.NewReader(tc.data))
		var ve *VerifyError
		if !errors.As(err, &ve) || ve.Code != tc.want {
			t.Errorf("%s: openTar error %v, want a *VerifyError with exit code %d", tc.name, err, tc.want)
		}
	}
	p, err := openTar(bytes.NewReader(valid))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Verify(p); err != nil {
		t.Errorf("sealed tarball failed verify: %v", err)
	}
}

// FuzzOpen feeds arbitrary bytes to the tarball reader. Every input ends
// in a *VerifyError from openTar, or in a pack that Verify accepts or
// rejects with one of its documented exit codes; none panics.
func FuzzOpen(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := openTar(bytes.NewReader(data))
		if err != nil {
			var ve *VerifyError
			if !errors.As(err, &ve) || (ve.Code != ExitBadDigest && ve.Code != ExitMissing) {
				t.Fatalf("openTar error %v is not a digest or missing-member *VerifyError", err)
			}
			return
		}
		switch _, err := Verify(p); ExitCode(err) {
		case ExitOK, ExitBadDigest, ExitBadManifest, ExitMissing, ExitBadSchema:
		default:
			t.Fatalf("Verify ended in %v, outside the documented exit codes", err)
		}
	})
}
