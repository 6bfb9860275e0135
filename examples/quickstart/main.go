// Quickstart: assemble a toy vulnerable program, harden it with RedFat,
// and watch an attacker-controlled out-of-bounds write get caught while
// benign executions run unchanged.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"redfat"
)

// A tiny "network service": it allocates a 5-element table and writes an
// entry at a request-controlled index — the classic CWE-787 shape.
const src = `
.func main
    mov $40, %rdi            ; table = malloc(5 * 8)
    call @malloc
    mov %rax, %rbx
    call @rf_input           ; index from the request
    mov $1337, %rcx
    mov %rcx, (%rbx,%rax,8)  ; table[index] = 1337
    mov (%rbx,%rax,8), %rax  ; return table[index]
    ret
`

func main() {
	bin, err := redfat.Assemble(src)
	if err != nil {
		log.Fatal(err)
	}

	// Step 1: the original binary. The out-of-bounds write at index 40
	// lands far past the allocation — and nothing notices.
	res, err := redfat.Run(bin, redfat.RunOptions{Input: []uint64{40}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("original binary, index 40 (out of bounds): exit=%d — silently corrupted the heap\n",
		res.ExitCode)

	// Step 2: harden. One call; the result is a drop-in replacement.
	hard, rep, err := redfat.Harden(bin, redfat.Defaults())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardened: %s\n", rep)

	// Step 3: benign request — same behaviour, modest overhead. Telemetry
	// rides along: counters from the VM, allocator and check runtime.
	metrics := redfat.NewMetrics()
	res, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{2}, Hardened: true, Abort: true,
		Metrics: metrics,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hardened binary, index 2 (in bounds): exit=%d, no alarms\n", res.ExitCode)
	fmt.Printf("telemetry: %d instructions retired, %d checks run, %d heap allocs\n",
		metrics.CounterValue("vm.retired.total"),
		metrics.CounterValue("check.execs"),
		metrics.CounterValue("lowfat.allocs"))

	// Step 4: the attack.
	_, err = redfat.Run(hard, redfat.RunOptions{
		Input: []uint64{40}, Hardened: true, Abort: true,
	})
	if me, ok := err.(*redfat.MemError); ok {
		fmt.Printf("hardened binary, index 40: DETECTED %v\n", me)
		return
	}
	log.Fatalf("attack was not detected: %v", err)
}
