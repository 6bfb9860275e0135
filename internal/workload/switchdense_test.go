package workload_test

import (
	"testing"

	"redfat/internal/cfg"
	"redfat/internal/isa"
	"redfat/internal/redfat"
	"redfat/internal/rtlib"
	"redfat/internal/workload"
)

func TestSwitchDenseRegistry(t *testing.T) {
	sd := workload.SwitchDense()
	if len(sd) != 2 {
		t.Fatalf("switch-dense count = %d, want 2", len(sd))
	}
	for _, bm := range sd {
		if workload.ByName(bm.Name) == nil {
			t.Errorf("ByName(%q) = nil", bm.Name)
		}
	}
	// The SPEC registry stays pinned at 29: switch-dense rides alongside.
	if len(workload.All()) != 29 {
		t.Fatalf("All() = %d benchmarks, want 29", len(workload.All()))
	}
}

// TestSwitchDenseResolves: the recovery must prove both dispatch tables
// (the whole point of the switch-dense corpus), and the recovered edges
// must unlock dominated-check elimination that -noindirect forgoes.
func TestSwitchDenseResolves(t *testing.T) {
	for _, bm := range workload.SwitchDense() {
		bm := small(bm)
		t.Run(bm.Name, func(t *testing.T) {
			bin, err := bm.Build()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Disassemble(bin)
			if err != nil {
				t.Fatal(err)
			}
			g := cfg.NewGraph(prog)
			if g.Indirect == nil {
				t.Fatal("marker-built benchmark: recovery did not run")
			}
			tables := 0
			for _, r := range g.Indirect.Resolved {
				if r.Kind == cfg.ResolvedTable {
					tables++
				}
			}
			if tables == 0 {
				t.Fatalf("no dispatch resolved as a bounded table: %+v",
					g.Indirect.Resolved)
			}
			// No indirect jump may remain opaque in a switch-dense build.
			for b := range g.Blocks {
				blk := &g.Blocks[b]
				if blk.Unknown &&
					prog.Insts[blk.End-1].Inst.Op == isa.JMP {
					t.Errorf("indirect jump at %#x left Unknown",
						prog.Insts[blk.End-1].Addr)
				}
			}

			// Recovery unlocks eliminations: with recovered edges the
			// handlers' checks are dominated by the loop head's access.
			on, err := redfat.Analyze(bin, redfat.Defaults())
			if err != nil {
				t.Fatal(err)
			}
			ablOpt := redfat.Defaults()
			ablOpt.NoIndirect = true
			off, err := redfat.Analyze(bin, ablOpt)
			if err != nil {
				t.Fatal(err)
			}
			if on.Total.ElimDominated <= off.Total.ElimDominated {
				t.Errorf("recovery unlocked no eliminations: %d (on) vs %d (off)",
					on.Total.ElimDominated, off.Total.ElimDominated)
			}
		})
	}
}

// TestSwitchDenseDifferential: identity matrix for marker-built
// binaries — the exit checksum is invariant across baseline vs hardened
// and across the harden-time -noindirect option (the recovered-edge
// consumers may only change which checks exist, never guest-visible
// results).
func TestSwitchDenseDifferential(t *testing.T) {
	for _, bm := range workload.SwitchDense() {
		bm := small(bm)
		t.Run(bm.Name, func(t *testing.T) {
			bin, err := bm.Build()
			if err != nil {
				t.Fatal(err)
			}
			input := bm.RefInput()
			base, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: input})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for _, noind := range []bool{false, true} {
				opt := redfat.Defaults()
				opt.NoIndirect = noind
				hard, _, err := redfat.Harden(bin, opt)
				if err != nil {
					t.Fatal(err)
				}
				hv, _, err := rtlib.RunHardened(hard, rtlib.RunConfig{Input: input})
				if err != nil {
					t.Fatalf("hardened (noindirect=%v): %v", noind, err)
				}
				if hv.ExitCode != base.ExitCode {
					t.Errorf("noindirect=%v: checksum %#x != baseline %#x",
						noind, hv.ExitCode, base.ExitCode)
				}
			}
		})
	}
}

// TestAdversarialStayUnknown: every adversarial case must leave its
// dispatch Unknown — resolving any of them would be unsound — while
// still executing cleanly under landing-pad enforcement, since the
// broken dispatch is dead at runtime.
func TestAdversarialStayUnknown(t *testing.T) {
	for _, ac := range workload.Adversarial() {
		t.Run(ac.Name, func(t *testing.T) {
			ac.Bench.TrainScale, ac.Bench.RefScale = 300, 1500
			bin, err := ac.Build()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Disassemble(bin)
			if err != nil {
				t.Fatal(err)
			}
			if !cfg.MarkerBuilt(bin) {
				t.Fatal("adversarial case must stay marker-built")
			}
			g := cfg.NewGraph(prog)
			if g.Indirect != nil {
				for _, r := range g.Indirect.Resolved {
					if r.Kind != cfg.ResolvedRet {
						t.Errorf("%s: unsoundly resolved %v at %#x (%s)",
							ac.Name, r.Kind, r.Addr, ac.Why)
					}
				}
			}
			unknown := 0
			for b := range g.Blocks {
				if g.Blocks[b].Unknown {
					unknown++
				}
			}
			if unknown == 0 {
				t.Error("no Unknown block survives: the dead dispatch should be opaque")
			}

			// The binary still runs under landing-pad enforcement.
			if _, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: ac.Bench.RefInput()}); err != nil {
				t.Fatalf("baseline: %v", err)
			}
		})
	}
}
