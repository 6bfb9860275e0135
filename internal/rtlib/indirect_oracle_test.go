package rtlib_test

import (
	"testing"

	"redfat/internal/cfg"
	"redfat/internal/rtlib"
	"redfat/internal/workload"
)

// TestIndirectEdgeOracle is the differential oracle for the indirect-flow
// recovery: run the switch-dense benchmarks instruction by instruction,
// recording every transfer (pc → target) at a statically resolved site,
// and check that the observed targets are a subset of the recovered Succs.
// A single counterexample would mean the recovery is unsound — a real
// edge the rewriter's analyses never saw. The precision ratio (observed
// vs claimed targets) is logged alongside.
func TestIndirectEdgeOracle(t *testing.T) {
	for _, bm := range workload.SwitchDense() {
		cp := *bm
		cp.TrainScale, cp.RefScale = 300, 1500
		t.Run(cp.Name, func(t *testing.T) {
			bin, err := cp.Build()
			if err != nil {
				t.Fatal(err)
			}
			prog, err := cfg.Disassemble(bin)
			if err != nil {
				t.Fatal(err)
			}
			g := cfg.NewGraph(prog)
			if g.Indirect == nil {
				t.Fatal("recovery did not run on a marker-built binary")
			}
			claimed := g.Indirect.TargetSets()
			if len(claimed) == 0 {
				t.Fatal("recovery resolved no sites")
			}

			// Every claimed site is an indirect JMP or CALL, so the RIP a
			// step there leaves is the transfer's target.
			observed := map[uint64]map[uint64]bool{}
			defer rtlib.StepObserver(func(pc, rip uint64) {
				if _, ok := claimed[pc]; !ok {
					return // not a claim to audit
				}
				s := observed[pc]
				if s == nil {
					s = map[uint64]bool{}
					observed[pc] = s
				}
				s[rip] = true
			})()
			if _, err := rtlib.RunBaseline(bin, rtlib.RunConfig{Input: cp.RefInput()}); err != nil {
				t.Fatal(err)
			}

			executed := 0
			for pc, obs := range observed {
				want := claimed[pc]
				executed++
				for tgt := range obs {
					if !want[tgt] {
						t.Errorf("UNSOUND: observed transfer %#x→%#x outside the recovered set %v",
							pc, tgt, keys(want))
					}
				}
			}
			if executed == 0 {
				t.Fatal("no statically resolved site executed: the oracle observed nothing")
			}
			var nObs, nClaim int
			for pc, want := range claimed {
				if obs := observed[pc]; obs != nil {
					nObs += len(obs)
					nClaim += len(want)
				}
			}
			t.Logf("%s: %d resolved sites executed, precision %d/%d = %.2f",
				cp.Name, executed, nObs, nClaim, float64(nObs)/float64(nClaim))
		})
	}
}

func keys(m map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
