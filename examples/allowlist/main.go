// The two-phase allow-list workflow (paper §5, Fig. 5).
//
// This program contains the C anti-idiom that breaks naive low-fat
// checking: an intentionally out-of-bounds base pointer (array − K), the
// pattern gfortran generates for non-zero array lower bounds. Naive full
// hardening false-positives on it. The profile-based workflow finds the
// problematic operation, drops it to redzone-only checking, and keeps
// full protection everywhere else.
//
// Run with: go run ./examples/allowlist
package main

import (
	"fmt"
	"log"

	"redfat"
)

// Fortran-style: REAL, DIMENSION(100:227) :: fqy — the compiler
// normalizes the base pointer to fqy−100 (paper §7.1).
const src = `
.func main
    mov $128, %rdi
    call @malloc
    mov %rax, %r12            ; the real object
    mov %rax, %rbx
    sub $100, %rbx            ; fqy − 100: intentional OOB pointer
    call @rf_input            ; index, valid range [100, 227]
    mov $1, %rcx
    movb %rcx, (%rbx,%rax,1)  ; fqy(i) = 1      ← LowFat false positive
    mov %rcx, (%r12)          ; idiomatic store ← always fine
    mov (%r12), %rax
    ret
`

func main() {
	bin, err := redfat.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}
	validInput := []uint64{150}

	// Naive full hardening: the valid Fortran access trips the LowFat
	// check — a false positive.
	naive, _, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	_, err = redfat.Run(naive, redfat.RunOptions{
		Input: validInput, Hardened: true, Abort: true,
	})
	if me, ok := err.(*redfat.MemError); ok {
		fmt.Printf("naive full hardening: FALSE POSITIVE on a valid access: %v\n", me)
	} else {
		log.Fatalf("expected a false positive, got %v", err)
	}

	// The workflow: profile against a test suite, then re-instrument.
	testSuite := [][]uint64{{100}, {163}, {227}}
	hard, allow, rep, err := redfat.ProfileAndHarden(bin, testSuite, redfat.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("profiling over %d tests: %d operations allow-listed\n",
		len(testSuite), len(allow))
	fmt.Printf("production binary: %d checks, %d full lowfat+redzone, %d redzone-only\n",
		rep.Checks, rep.FullChecks, rep.Checks-rep.FullChecks)

	res, err := redfat.Run(hard, redfat.RunOptions{
		Input: validInput, Hardened: true, Abort: true,
	})
	if err != nil {
		log.Fatalf("production binary still false-positives: %v", err)
	}
	fmt.Printf("production run, fqy(150): exit=%d, coverage %.0f%%, no false alarms\n",
		res.ExitCode, res.Coverage*100)

	// And the protection still works: an actual overflow through the
	// idiomatic pointer is caught by the allow-listed full check.
	_, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{100 + 500}, Hardened: true, Abort: true,
	})
	if me, ok := err.(*redfat.MemError); ok {
		fmt.Printf("real overflow (index 600): still DETECTED: %v\n", me)
		return
	}
	log.Fatalf("real overflow missed: %v", err)
}
