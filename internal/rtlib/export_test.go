package rtlib

import (
	"redfat/internal/mem"
	"redfat/internal/vm"
)

// StepReference makes every runner dispatch through VM.Step — each
// instruction decoded afresh, with no block cache, chaining or
// superblock tier — over guest memory whose software TLB is off from
// before the binary loads, until the returned restore func runs. It is
// the cache-free reference row of the dispatch identity tests.
func StepReference() (restore func()) {
	restoreRun := StepObserver(func(pc, rip uint64) {})
	newMemory = func() *mem.Memory {
		m := mem.New()
		m.NoTLB = true
		return m
	}
	return func() { restoreRun(); newMemory = mem.New }
}

// StepObserver makes every runner dispatch through VM.Step and calls
// after with each retired instruction's address and the RIP it left,
// until the returned restore func runs. After an indirect JMP or CALL,
// that RIP is the transfer's target.
func StepObserver(after func(pc, rip uint64)) (restore func()) {
	run = func(v *vm.VM) error {
		defer v.FlushTelemetry()
		for !v.Halted {
			pc := v.RIP
			if err := v.Step(); err != nil {
				return err
			}
			after(pc, v.RIP)
		}
		return nil
	}
	return func() { run = (*vm.VM).Run }
}
