package redfat_test

import (
	"errors"
	"io"
	"path/filepath"
	"testing"
	"time"

	"redfat"
	"redfat/internal/dis"
	"redfat/internal/relf"
	"redfat/internal/verify"
)

const vulnerableSrc = `
# A toy vulnerable server: reads an index, writes to a heap array.
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    call @rf_input            ; attacker-controlled index
    mov $7, %rcx
    mov %rcx, (%rbx,%rax,8)   ; array[i] = 7
    mov $0, %rax
    ret
`

func TestPublicAPIEndToEnd(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline run, benign input.
	res, err := redfat.Run(bin, redfat.RunOptions{Input: []uint64{2}})
	if err != nil || res.ExitCode != 0 {
		t.Fatalf("baseline: %v %+v", err, res)
	}

	hard, rep, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Checks == 0 {
		t.Fatal("no checks")
	}

	// Benign input passes, attack is caught.
	res, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{2}, Hardened: true, Abort: true,
	})
	if err != nil || len(res.Errors) != 0 {
		t.Fatalf("benign hardened run: %v %v", err, res.Errors)
	}
	_, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{5}, Hardened: true, Abort: true,
	})
	if _, ok := err.(*redfat.MemError); !ok {
		t.Fatalf("attack not detected: %v", err)
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "prog.relf")
	if err := redfat.SaveBinary(bin, path); err != nil {
		t.Fatal(err)
	}
	got, err := redfat.LoadBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entry != bin.Entry {
		t.Errorf("entry mismatch after round trip")
	}
	if _, err := redfat.LoadBinary(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Error("loading missing file succeeded")
	}
}

func TestProfileAndHardenAPI(t *testing.T) {
	src := `
.func main
    mov $128, %rdi
    call @malloc
    mov %rax, %rbx
    sub $64, %rbx             ; anti-idiom base pointer
    call @rf_input
    mov $1, %rcx
    movb %rcx, (%rbx,%rax,1)  ; (array-64)[i]
    mov $0, %rax
    ret
`
	bin, err := redfat.Assemble(src)
	if err != nil {
		t.Fatal(err)
	}
	hard, allow, _, err := redfat.ProfileAndHarden(bin,
		[][]uint64{{64}, {100}}, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{70}, Hardened: true, Abort: true,
	})
	if err != nil || len(res.Errors) != 0 {
		t.Fatalf("false positive after profiling: %v %v", err, res.Errors)
	}
	// Allow-list file round trip.
	path := filepath.Join(t.TempDir(), "allow.lst")
	if err := redfat.SaveAllowList(allow, path); err != nil {
		t.Fatal(err)
	}
	got, err := redfat.LoadAllowList(path)
	if err != nil || len(got) != len(allow) {
		t.Fatalf("allow-list round trip: %v (%d vs %d)", err, len(got), len(allow))
	}
}

func TestMemcheckAPI(t *testing.T) {
	bin, err := redfat.Assemble(vulnerableSrc)
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.Run(bin, redfat.RunOptions{Input: []uint64{5}, Memcheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Errors) == 0 {
		t.Error("Memcheck missed the incremental overflow into the redzone")
	}
	if _, err := redfat.Run(bin, redfat.RunOptions{Memcheck: true, Hardened: true}); err == nil {
		t.Error("Memcheck+Hardened accepted")
	}
}

func TestRunLinkedAPI(t *testing.T) {
	lib, err := redfat.Assemble(`
.func lib_get
    mov (%rdi), %rax
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	lib.Rebase(0x5000000 - 0x400000)
	main, err := redfat.Assemble(`
.func main
    mov $32, %rdi
    call @malloc
    mov %rax, %rbx
    mov $55, %rcx
    mov %rcx, (%rbx)
    mov %rbx, %rdi
    call @lib_get
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	hardLib, _, err := redfat.Harden(lib, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	hardMain, _, err := redfat.Harden(main, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	res, err := redfat.RunLinked(hardMain, []*redfat.Binary{hardLib},
		redfat.RunOptions{Hardened: true, Abort: true})
	if err != nil || res.ExitCode != 55 {
		t.Fatalf("linked run: exit=%d err=%v", res.ExitCode, err)
	}
	if res.Coverage == 0 {
		t.Error("linked run reported zero coverage")
	}
	if _, err := redfat.RunLinked(hardMain, nil, redfat.RunOptions{Memcheck: true}); err == nil {
		t.Error("Memcheck linked run accepted")
	}
}

// TestMallocHugeReturnsNull runs a guest malloc of sizes near 2^64 under
// the baseline, RedFat and Memcheck runtimes: each must return NULL.
// Sizes above 2^63 used to hang the baseline and Memcheck heaps (no cycle
// budget stops host code), so each run has a bounded wait; malloc(-1) and
// the other sizes used to wrap the size arithmetic into a bogus
// allocation.
func TestMallocHugeReturnsNull(t *testing.T) {
	bin, err := redfat.Assemble(`
.func main
    call @rf_input
    mov %rax, %rdi
    call @malloc
    ret
`)
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	runtimes := []struct {
		name string
		bin  *redfat.Binary
		opt  redfat.RunOptions
	}{
		{"baseline", bin, redfat.RunOptions{}},
		{"redfat", hard, redfat.RunOptions{Hardened: true}},
		{"memcheck", bin, redfat.RunOptions{Memcheck: true}},
	}
	type outcome struct {
		res *redfat.Result
		err error
	}
	run := func(bin *redfat.Binary, opt redfat.RunOptions) (*redfat.Result, error) {
		done := make(chan outcome, 1)
		go func() {
			res, err := redfat.Run(bin, opt)
			done <- outcome{res, err}
		}()
		select {
		case o := <-done:
			return o.res, o.err
		case <-time.After(10 * time.Second):
			return nil, errors.New("run did not return")
		}
	}
	sizes := []uint64{1<<63 + 1, ^uint64(0), ^uint64(0) - 7, ^uint64(0) - 100}
	for _, rt := range runtimes {
		for _, size := range append(sizes, 40) {
			opt := rt.opt
			opt.Input = []uint64{size}
			res, err := run(rt.bin, opt)
			if err != nil {
				t.Fatalf("%s malloc(%#x): %v", rt.name, size, err)
			}
			if size == 40 {
				if res.ExitCode == 0 {
					t.Errorf("%s malloc(40) returned NULL", rt.name)
				}
			} else if res.ExitCode != 0 {
				t.Errorf("%s malloc(%#x) = %#x, want NULL", rt.name, size, res.ExitCode)
			}
		}
	}
}

// TestEmptyTextIsAnError: rfasm turns a source of just ".func main" into
// an image with a 0-byte .text that marshals and unmarshals; every tool
// that disassembles it must refuse it with an error, not index the first
// instruction of an empty program.
func TestEmptyTextIsAnError(t *testing.T) {
	bin, err := redfat.Assemble(".func main\n")
	if err != nil {
		t.Fatal(err)
	}
	img, err := bin.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	bin, err = relf.Unmarshal(img)
	if err != nil {
		t.Fatal(err)
	}
	if text := bin.Text(); text == nil || len(text.Data) != 0 {
		t.Fatalf("want an empty .text, got %+v", text)
	}
	if _, _, err := redfat.Harden(bin, redfat.Defaults()); err == nil {
		t.Error("Harden accepted an empty text section")
	}
	if _, err := redfat.Analyze(bin, redfat.Defaults()); err == nil {
		t.Error("Analyze accepted an empty text section")
	}
	if _, err := verify.Verify(bin, bin); err == nil {
		t.Error("Verify accepted an empty text section")
	}
	if err := dis.Binary(io.Discard, bin, dis.Options{ShowLeaders: true}); err == nil {
		t.Error("dis accepted an empty text section")
	}
}
