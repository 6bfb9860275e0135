// Shared-library hardening (paper §7.4).
//
// RedFat statically rewrites individual binaries, so in a dynamically
// linked program only the modules you instrument are protected. This
// example builds an executable that calls into libparser.so (which has
// the bug), and shows:
//
//  1. hardening only the main executable: the overflow inside the
//     library goes undetected — the paper's stated limitation;
//  2. additionally hardening the library (the paper's recommended
//     workflow): the same attack is caught, with a diagnostic pointing
//     into the library.
//
// Run with: go run ./examples/shared-library
package main

import (
	"fmt"
	"log"

	"redfat"
)

// libparser.so: an exported parse_field(buf, idx) that writes without a
// bounds check. Built at library addresses, away from the executable.
const libSrc = `
.func parse_field
    mov $0x41, %rcx
    mov %rcx, (%rdi,%rsi,8)   ; buf[idx] = 'A' — no bounds check
    mov $0, %rax
    ret
`

// The executable: allocates a 40-byte record plus a neighbour, reads the
// field index from the request, and calls the library.
const mainSrc = `
.func main
    mov $40, %rdi
    call @malloc
    mov %rax, %rbx
    mov $40, %rdi
    call @malloc              ; adjacent victim object
    call @rf_input            ; attacker-controlled field index
    mov %rax, %rsi
    mov %rbx, %rdi
    call @parse_field
    mov $0, %rax
    ret
`

func main() {
	// Libraries are placed before hardening (like prelinking a DSO for
	// its load address), so instrumentation metadata needs no relocation.
	lib, err := buildAt(libSrc, 0x5000000, 0x5200000)
	if err != nil {
		log.Fatal(err)
	}
	exe, err := redfat.Assemble(mainSrc)
	if err != nil {
		log.Fatal(err)
	}
	attack := []uint64{8} // skips the redzone into the victim object

	hardExe, _, err := redfat.Harden(exe, redfat.Defaults())
	if err != nil {
		log.Fatal(err)
	}

	// 1. Main hardened, library not: the access happens inside the
	// uninstrumented library → undetected.
	res, err := redfat.RunLinked(hardExe, []*redfat.Binary{lib},
		redfat.RunOptions{Input: attack, Hardened: true, Abort: true})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("main hardened, libparser NOT: %d errors — the library is unprotected (§7.4)\n",
		len(res.Errors))

	// 2. Harden the library too.
	hardLib, rep, err := redfat.Harden(lib, redfat.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("instrumenting libparser.so separately: %d checks\n", rep.Checks)
	_, err = redfat.RunLinked(hardExe, []*redfat.Binary{hardLib},
		redfat.RunOptions{Input: attack, Hardened: true, Abort: true})
	if me, ok := err.(*redfat.MemError); ok {
		fmt.Printf("main + libparser hardened: DETECTED %v\n", me)
		fmt.Printf("   %s\n", me.Note)
		return
	}
	log.Fatalf("library overflow not detected: %v", err)
}

// buildAt assembles library source at the given text/data bases by
// prepending nothing — the text assembler always uses default bases, so
// we rebase the PIC-agnostic way: assemble, then slide the image.
func buildAt(src string, textBase, dataBase uint64) (*redfat.Binary, error) {
	bin, err := redfat.Assemble(src)
	if err != nil {
		return nil, err
	}
	// The default text base is 0x400000; slide the whole image up to the
	// library region (all code is position-independent-by-construction
	// here: no absolute data references).
	bin.Rebase(textBase - 0x400000)
	_ = dataBase
	return bin, nil
}
