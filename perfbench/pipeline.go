package main

import (
	"errors"
	"fmt"

	"redfat/internal/cfg"
	"redfat/internal/memcheck"
	"redfat/internal/obs"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/rtlib"
	"redfat/internal/verify"
	"redfat/internal/vm"
)

// The calls below are the pipeline steps every workload shares. Each run
// is set up the way rfvm sets one up: a fresh flight recorder attached,
// no event tracer or profiler, no ablation knobs. The telemetry registry
// is attached in traced passes only.

// harden rewrites bin under opt; a traced pass also publishes the
// report's counts (harden.*, e9.*) into its registry.
func harden(m *meter, bin *relf.Binary, opt redfat.Options) (*relf.Binary, *redfat.Report, error) {
	var (
		hard *relf.Binary
		rep  *redfat.Report
		err  error
	)
	m.call(lHarden, func() { hard, rep, err = redfat.Harden(bin, opt) })
	if err != nil {
		return nil, nil, fmt.Errorf("harden: %w", err)
	}
	if m.pass.traced {
		rep.Publish(m.pass.hardReg)
	}
	return hard, rep, nil
}

// marshal serializes bin as the redfat CLI does before writing it out
// and returns its size in bytes.
func marshal(m *meter, bin *relf.Binary) (int, error) {
	var (
		data []byte
		err  error
	)
	m.call(lMarshal, func() { data, err = bin.Marshal() })
	if err != nil {
		return 0, fmt.Errorf("marshal: %w", err)
	}
	return len(data), nil
}

// verifyHardened runs translation validation and returns the number of
// violations it found.
func verifyHardened(m *meter, orig, hard *relf.Binary) (int, error) {
	var (
		rep *verify.Report
		err error
	)
	m.call(lVerify, func() { rep, err = verify.Verify(orig, hard) })
	if err != nil {
		return 0, fmt.Errorf("verify: %w", err)
	}
	m.pass.count("verify.violations", float64(len(rep.Violations)))
	return len(rep.Violations), nil
}

func runBaseline(m *meter, bin *relf.Binary, in []uint64) (*vm.VM, error) {
	var (
		v   *vm.VM
		err error
	)
	m.call(lBase, func() {
		v, err = rtlib.RunBaseline(bin, rtlib.RunConfig{Input: in,
			Metrics: m.pass.baseReg, Flight: newFlight()})
	})
	if err != nil {
		return nil, fmt.Errorf("baseline run: %w", err)
	}
	m.pass.count("vm.base_insts", float64(v.Insts))
	return v, nil
}

// runHardened runs a hardened binary under the RedFat runtime. With abort
// set, a detection ends the run and comes back as a *vm.MemError.
func runHardened(m *meter, bin *relf.Binary, in []uint64, abort bool) (*vm.VM, error) {
	var (
		v   *vm.VM
		rt  *rtlib.Runtime
		err error
	)
	p := m.pass
	m.call(lHard, func() {
		v, rt, err = rtlib.RunHardened(bin, rtlib.RunConfig{Input: in, Abort: abort,
			Metrics: p.hardReg, Flight: newFlight()})
	})
	if v == nil || rt == nil {
		return nil, fmt.Errorf("hardened run: %w", err)
	}
	if p.traced {
		p.count("vm.insts", float64(v.Insts))
		tlb := v.Mem.TLB()
		p.count("mem.tlb_hits", float64(tlb.Hits))
		p.count("mem.tlb_misses", float64(tlb.Misses))
		for i := range rt.Checks {
			if rt.Stats[i].Execs == 0 {
				continue
			}
			p.count("rtlib.cov_total", float64(rt.Checks[i].Merged))
			if rt.Checks[i].Mode == rtlib.ModeFull {
				p.count("rtlib.cov_full", float64(rt.Checks[i].Merged))
			}
		}
	}
	return v, err
}

func runMemcheck(m *meter, bin *relf.Binary, in []uint64) (*vm.VM, error) {
	var (
		v   *vm.VM
		err error
	)
	m.call(lMemcheck, func() {
		v, err = memcheck.Run(bin, rtlib.RunConfig{Input: in, Abort: true, Flight: newFlight()})
	})
	if v == nil {
		return nil, fmt.Errorf("memcheck run: %w", err)
	}
	return v, err
}

// newFlight is the always-on flight recorder rfvm attaches to every run.
func newFlight() *obs.Flight { return obs.NewFlight(0) }

// detected reports whether a run found a memory error. Any other run
// error is returned.
func detected(v *vm.VM, err error) (bool, error) {
	var me *vm.MemError
	if errors.As(err, &me) {
		return true, nil
	}
	if err != nil {
		return false, err
	}
	return len(v.Errors) > 0, nil
}

// runProbes re-measures, after a traced pass's units and outside them,
// the layers that redfat.Harden and rtlib.RunHardened contain: decoding,
// graph and indirect-flow recovery, and the dataflow engine on each
// original binary, and the set-up of a hardened run (a run given a
// one-cycle budget, so it stops at its first block).
func runProbes(m *meter) {
	p := m.pass
	for _, pr := range p.probes {
		p.attempted++
		var (
			prog *cfg.Program
			err  error
			g    *cfg.Graph
		)
		m.call(lDecode, func() { prog, err = cfg.Disassemble(pr.orig) })
		if err != nil {
			p.fail("probe", "decode: %v", err)
			continue
		}
		m.call(lGraph, func() { g = cfg.NewGraph(prog) })
		m.call(lDataflow, func() { cfg.NewDataflow(prog) })
		p.count("cfg.insts", float64(len(prog.Insts)))
		p.count("cfg.blocks", float64(len(g.Blocks)))
		p.count("cfg.edges", float64(g.NumEdges()))
		for i := range g.Blocks {
			if g.Blocks[i].Unknown {
				p.count("cfg.unknown_blocks", 1)
			}
		}
		if g.Indirect != nil {
			p.count("cfg.indirect_resolved", float64(len(g.Indirect.Resolved)))
		}
		m.call(lRunSetup, func() {
			_, _, err = rtlib.RunHardened(pr.hard, rtlib.RunConfig{Input: pr.input,
				MaxCycles: 1, Flight: newFlight()})
		})
		var cle *vm.CycleLimitError
		if err != nil && !errors.As(err, &cle) {
			p.fail("probe", "run set-up: %v", err)
		}
	}
	p.probes = nil
}
