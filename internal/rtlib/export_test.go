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
	run = func(v *vm.VM) error {
		defer v.FlushTelemetry()
		for !v.Halted {
			if err := v.Step(); err != nil {
				return err
			}
		}
		return nil
	}
	newMemory = func() *mem.Memory {
		m := mem.New()
		m.NoTLB = true
		return m
	}
	return func() { run, newMemory = (*vm.VM).Run, mem.New }
}
