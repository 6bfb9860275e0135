package redfat_test

import (
	"path/filepath"
	"testing"

	"redfat"
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
