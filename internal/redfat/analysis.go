package redfat

import (
	"encoding/json"
	"io"
	"sort"

	"redfat/internal/relf"
)

// FuncStats is the per-function slice of an analysis report. The JSON
// encoding is struct-driven, so key order is stable across runs.
type FuncStats struct {
	Name     string `json:"name"`
	Addr     uint64 `json:"addr"`
	Insts    int    `json:"insts"`
	Blocks   int    `json:"blocks"`
	Edges    int    `json:"edges"`
	DomDepth int    `json:"dom_depth"`

	// DeadRegHist[k] counts instructions at which k of the trampoline's
	// four scratch slots could be served by provably dead registers
	// under the whole-CFG liveness solution (k = min(4, dead count)).
	DeadRegHist [5]int `json:"dead_reg_hist"`

	// The fates Harden gave the function's memory operands: one count
	// per fate, summing to Operands. ChecksEmitted counts operands
	// covered by a check before merging (merging changes records, not
	// protection); Unprotected counts those whose patch failed.
	Operands      int `json:"operands"`
	SkippedReads  int `json:"skipped_reads"`
	ElimSyntactic int `json:"elim_syntactic"`
	ElimDominated int `json:"elim_dominated"`
	ChecksEmitted int `json:"checks_emitted"`
	Unprotected   int `json:"unprotected,omitempty"`
}

// Analysis is the machine-readable dump behind redfat -analysis-report:
// what the dataflow engine concluded about each function and where each
// elimination pass fired.
type Analysis struct {
	Functions []FuncStats `json:"functions"`
	Total     FuncStats   `json:"total"`
}

// WriteJSON writes the report as indented JSON with stable key order.
func (a *Analysis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// Analyze runs Harden's pipeline over bin under opt, rewriting only in
// memory, and reports per-function statistics: the dataflow engine's
// view of the unpatched program and a count of the fates Harden gave
// each memory operand, so its totals equal Harden's Report. Instructions
// outside every function symbol are attributed to a synthetic
// "(outside function symbols)" entry.
func Analyze(bin *relf.Binary, opt Options) (*Analysis, error) {
	r, err := rewrite(bin, opt, true)
	if err != nil {
		return nil, err
	}
	prog, df := r.prog, r.df

	// Function ranges from the symbol table, sorted by address; each
	// covers up to the next function start.
	type fn struct {
		name string
		addr uint64
	}
	var fns []fn
	for _, sym := range bin.Symbols {
		if sym.Func {
			fns = append(fns, fn{sym.Name, sym.Addr})
		}
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].addr < fns[j].addr })

	stats := make([]FuncStats, len(fns)+1)
	stats[0] = FuncStats{Name: "(outside function symbols)"}
	for i, f := range fns {
		stats[i+1] = FuncStats{Name: f.name, Addr: f.addr}
	}
	fnOf := func(addr uint64) *FuncStats {
		// Last function starting at or before addr.
		k := sort.Search(len(fns), func(i int) bool { return fns[i].addr > addr })
		return &stats[k] // k==0 → outside every function
	}

	// Each instruction and block counts toward its function and the total.
	a := &Analysis{Total: FuncStats{Name: "total"}}
	for i, f := range r.fates {
		k := min(df.DeadRegsAt(i).Count(), 4)
		for _, fs := range [2]*FuncStats{fnOf(prog.Insts[i].Addr), &a.Total} {
			fs.Insts++
			fs.DeadRegHist[k]++
			if f != notOperand {
				fs.Operands++
			}
			switch f {
			case readSkipped:
				fs.SkippedReads++
			case elimSyntactic:
				fs.ElimSyntactic++
			case elimDominated:
				fs.ElimDominated++
			case checked:
				fs.ChecksEmitted++
			case unprotected:
				fs.Unprotected++
			}
		}
	}
	for b := range df.Graph.Blocks {
		blk := &df.Graph.Blocks[b]
		d := df.Dom.Depth(b)
		for _, fs := range [2]*FuncStats{fnOf(prog.Insts[blk.Start].Addr), &a.Total} {
			fs.Blocks++
			// Unknown blocks record no successors, so Edges counts proven
			// edges only; their ⊤ flow shows up as shallow dominator depth.
			fs.Edges += len(blk.Succs)
			fs.DomDepth = max(fs.DomDepth, d)
		}
	}
	for i := range stats {
		if i > 0 || stats[i].Insts > 0 { // keep the synthetic entry only if used
			a.Functions = append(a.Functions, stats[i])
		}
	}
	return a, nil
}
