package main

import "syscall"

// layerMetrics fills the traced run's per-layer metrics. Times and
// allocations are medians over the traced passes of the per-pass sums;
// counts are per pass and repeat exactly from pass to pass. A layer the
// workload does not call reads 0.
func (r *runner) layerMetrics(out map[string]metric) {
	med := func(f func(p *pass) float64) float64 { return median(r.perPass(true, f)) }
	ms := func(l layer) func(p *pass) float64 {
		return func(p *pass) float64 { return float64(p.ns[l]) / 1e6 }
	}
	allocMB := func(l layer) func(p *pass) float64 {
		return func(p *pass) float64 { return float64(p.alloc[l]) / mib }
	}
	perCall := func(f func(p *pass) float64, l layer) func(p *pass) float64 {
		return func(p *pass) float64 { return ratio(f(p), float64(p.calls[l])) }
	}
	count := func(name string) func(p *pass) float64 {
		return func(p *pass) float64 { return p.counts[name] }
	}
	counter := func(name string) func(p *pass) float64 {
		return func(p *pass) float64 { return float64(p.hardReg.CounterValue(name)) }
	}
	set := func(name, unit string, f func(p *pass) float64) {
		out[name] = metric{Value: med(f), Unit: unit}
	}

	var asmMS []float64
	for _, p := range r.setups {
		asmMS = append(asmMS, float64(p.ns[lAsm])/1e6)
	}
	out["asm.build_ms"] = metric{Value: median(asmMS), Unit: "ms"}

	set("cfg.decode_ms", "ms", ms(lDecode))
	set("cfg.decode_alloc_mb", "MB", allocMB(lDecode))
	set("cfg.insts", "count", count("cfg.insts"))
	set("cfg.graph_ms", "ms", ms(lGraph))
	set("cfg.blocks", "count", count("cfg.blocks"))
	set("cfg.edges", "count", count("cfg.edges"))
	set("cfg.unknown_blocks", "count", count("cfg.unknown_blocks"))
	set("cfg.indirect_resolved", "count", count("cfg.indirect_resolved"))
	set("cfg.dataflow_ms", "ms", ms(lDataflow))
	set("cfg.dataflow_alloc_mb", "MB", allocMB(lDataflow))

	set("redfat.harden_ms", "ms", ms(lHarden))
	set("redfat.self_ms", "ms", func(p *pass) float64 {
		return float64(p.ns[lHarden]-p.ns[lDecode]-p.ns[lDataflow]) / 1e6
	})
	set("redfat.alloc_mb", "MB", allocMB(lHarden))
	set("redfat.operands", "count", counter("harden.operands"))
	set("redfat.checks", "count", counter("harden.checks"))
	set("redfat.batches", "count", counter("harden.batches"))
	set("redfat.elim_dominated", "count", counter("harden.elim.dom"))
	set("redfat.merged_away", "count", counter("harden.merged.away"))
	set("redfat.failed_sites", "count", counter("harden.sites.failed"))
	set("e9.t1", "count", counter("e9.tactic.t1"))
	set("e9.t2", "count", counter("e9.tactic.t2"))
	set("e9.t3", "count", counter("e9.tactic.t3"))
	set("e9.tramp_bytes", "B", counter("e9.tramp.bytes"))

	set("relf.marshal_ms", "ms", ms(lMarshal))
	set("relf.hard_bytes", "B", func(p *pass) float64 { return float64(p.hardBytes) })

	set("verify.ms", "ms", ms(lVerify))
	set("verify.alloc_mb", "MB", allocMB(lVerify))
	set("verify.violations", "count", count("verify.violations"))

	set("profile.ms", "ms", ms(lProfile))
	set("profile.allow_sites", "count", count("profile.allow_sites"))

	set("vm.base_ms", "ms", ms(lBase))
	set("vm.hard_ms", "ms", ms(lHard))
	set("vm.base_mips", "Minst/s", func(p *pass) float64 {
		return ratio(p.counts["vm.base_insts"], float64(p.ns[lBase])/1e3)
	})
	set("vm.hard_mips", "Minst/s", func(p *pass) float64 {
		return ratio(p.counts["vm.insts"], float64(p.ns[lHard])/1e3)
	})
	set("vm.host_overhead_x", "x", func(p *pass) float64 {
		return ratio(float64(p.ns[lHard]), float64(p.ns[lBase]))
	})
	set("vm.insts", "count", count("vm.insts"))
	set("vm.jit_share", "ratio", func(p *pass) float64 {
		return ratio(float64(p.hardReg.CounterValue("vm.jit.exec.insts")),
			float64(p.hardReg.CounterValue("vm.retired.total")))
	})
	set("vm.jit.compiles", "count", counter("vm.jit.compile.count"))
	set("vm.jit.compile_ms", "ms", func(p *pass) float64 {
		return float64(p.hardReg.Snapshot().Histograms["vm.jit.compile.ns"].Sum) / 1e6
	})
	set("vm.jit.deopts", "count", counter("vm.jit.deopt.count"))
	set("vm.icache.misses", "count", counter("vm.icache.misses"))
	set("vm.chain_hit_rate", "ratio", func(p *pass) float64 {
		h := float64(p.hardReg.CounterValue("vm.icache.chain.hits"))
		return ratio(h, h+float64(p.hardReg.CounterValue("vm.icache.chain.misses")))
	})
	set("vm.rtcalls", "count", counter("vm.rtcall.count"))
	set("vm.rtcall_cycles", "cycles", counter("vm.rtcall.cycles"))

	set("mem.tlb_hit_rate", "ratio", func(p *pass) float64 {
		h := p.counts["mem.tlb_hits"]
		return ratio(h, h+p.counts["mem.tlb_misses"])
	})
	set("mem.loads", "count", counter("vm.mem.loads"))
	set("mem.stores", "count", counter("vm.mem.stores"))

	set("rtlib.check_execs", "count", counter("check.execs"))
	set("rtlib.coverage", "ratio", func(p *pass) float64 {
		return ratio(p.counts["rtlib.cov_full"], p.counts["rtlib.cov_total"])
	})
	set("rtlib.libc_span_checks", "count", counter("vm.libc.span.check.count"))
	set("rtlib.run_ms", "ms", perCall(ms(lRunSetup), lRunSetup))
	set("rtlib.run_alloc_mb", "MB", perCall(allocMB(lRunSetup), lRunSetup))

	set("lowfat.allocs", "count", counter("lowfat.allocs"))
	set("lowfat.reuses", "count", counter("lowfat.freelist.reuses"))
	set("lowfat.mapped_mb", "MB", func(p *pass) float64 {
		return float64(p.hardReg.CounterValue("lowfat.mapped.bytes")) / mib
	})
	set("heap.allocs", "count", func(p *pass) float64 {
		return float64(p.baseReg.CounterValue("heap.allocs"))
	})

	set("memcheck.ms", "ms", ms(lMemcheck))
	set("memcheck.run_alloc_mb", "MB", perCall(allocMB(lMemcheck), lMemcheck))

	out["go.peak_rss_mb"] = metric{Value: peakRSSMB(), Unit: "MB"}
	set("go.gc_count", "count", func(p *pass) float64 { return float64(p.gcCount) })
	set("go.gc_pause_ms", "ms", func(p *pass) float64 { return float64(p.gcPauseNS) / 1e6 })

	wall := func(p *pass) float64 { return float64(p.wallNS) }
	out["trace.overhead_x"] = metric{Unit: "x",
		Value: ratio(median(r.perPass(true, wall)), median(r.perPass(false, wall)))}
}

// peakRSSMB returns the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}
