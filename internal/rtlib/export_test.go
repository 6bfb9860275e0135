package rtlib

import "redfat/internal/vm"

// StepReference makes every runner dispatch through VM.Step — each
// instruction decoded afresh, with no block cache, chaining or
// superblock tier — until the returned restore func runs. It is the
// per-instruction reference row of the dispatch identity tests.
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
	return func() { run = (*vm.VM).Run }
}
