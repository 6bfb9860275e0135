package redfat_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"redfat/internal/asm"
	"redfat/internal/juliet"
	"redfat/internal/kraken"
	"redfat/internal/profile"
	"redfat/internal/redfat"
	"redfat/internal/relf"
	"redfat/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestAnalysisReportGolden pins the -analysis-report output for a
// deterministic benchmark: the JSON must be byte-identical run to run
// (stable key order, sorted functions) and match the checked-in golden.
func TestAnalysisReportGolden(t *testing.T) {
	// A Juliet case keeps its function symbols (workload binaries are
	// stripped), so the per-function breakdown is exercised too.
	c := juliet.JulietCases()[0]
	bin, err := c.Build()
	if err != nil {
		t.Fatal(err)
	}
	a, err := redfat.Analyze(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := a.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}

	// Determinism: a second run must be byte-identical.
	a2, err := redfat.Analyze(bin, redfat.Defaults())
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := a2.WriteJSON(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("analysis report is not deterministic")
	}

	golden := filepath.Join("testdata", "analysis_juliet.json")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("analysis report drifted from %s (re-run with -update if intended)\ngot:\n%s",
			golden, buf.String())
	}
}

// agree hardens and analyzes bin under opt. It requires the Report's
// fate counters to account for every operand and Analyze's totals to
// equal them.
func agree(t *testing.T, name string, bin *relf.Binary, opt redfat.Options) {
	t.Helper()
	_, rep, err := redfat.Harden(bin, opt)
	if err != nil {
		t.Fatalf("%s: harden: %v", name, err)
	}
	a, err := redfat.Analyze(bin, opt)
	if err != nil {
		t.Fatalf("%s: analyze: %v", name, err)
	}
	if n := rep.SkippedReads + rep.Eliminated + rep.ElimDominated + rep.Instrumented + rep.FailedSites; n != rep.Operands {
		t.Errorf("%s: fates sum to %d of %d operands: %+v", name, n, rep.Operands, rep)
	}
	if rep.FullChecks > rep.Checks {
		t.Errorf("%s: %d full checks of %d", name, rep.FullChecks, rep.Checks)
	}
	// operands, skipped reads, syntactic, dominated, checked, unprotected
	tot := a.Total
	got := [6]int{tot.Operands, tot.SkippedReads, tot.ElimSyntactic, tot.ElimDominated, tot.ChecksEmitted, tot.Unprotected}
	want := [6]int{rep.Operands, rep.SkippedReads, rep.Eliminated, rep.ElimDominated, rep.Instrumented, rep.FailedSites}
	if got != want {
		t.Errorf("%s: analyze totals %v, harden report %v", name, got, want)
	}
	if tot.Blocks == 0 || tot.DomDepth == 0 || (tot.Blocks > 1 && tot.Edges == 0) {
		t.Errorf("%s: degenerate CFG stats: %+v", name, tot)
	}
}

// TestAnalyzeConsistency holds Analyze to Harden on every shipped
// binary (the SPEC-like, switch-dense, Juliet and CVE programs and the
// Chrome-scale image) and the failed-patch programs, under the option
// sets the experiments use.
func TestAnalyzeConsistency(t *testing.T) {
	type input struct {
		name  string
		build func() (*relf.Binary, error)
	}
	var ins []input
	for _, b := range append(workload.All(), workload.SwitchDense()...) {
		ins = append(ins, input{b.Name, b.Build})
	}
	for _, c := range append(juliet.JulietCases(), juliet.CVECases()...) {
		ins = append(ins, input{c.ID, c.Build})
	}
	ins = append(ins, input{"chrome", func() (*relf.Binary, error) { return kraken.Build(8000) }})
	for _, fp := range failedPatch {
		ins = append(ins, input{fp.name, func() (*relf.Binary, error) { return asm.Assemble(fp.src) }})
	}

	d := redfat.Defaults()
	noReads, o0, noBatch, noElim, noInd, local := d, d, d, d, d, d
	noReads.CheckReads = false
	o0.Elim, o0.Batch, o0.Merge, o0.ElimDom = false, false, false, false
	noBatch.Batch = false
	noElim.Elim = false
	noInd.NoIndirect = true
	local.LocalLiveness, local.ElimDom = true, false
	opts := []redfat.Options{d, noReads, o0, profile.Options(d), noBatch, noElim, noInd, local}
	for _, in := range ins {
		bin, err := in.build()
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		for k, opt := range opts {
			agree(t, fmt.Sprintf("%s/options%d", in.name, k), bin, opt)
		}
	}

	// An instrumented binary is Harden's error to Analyze too.
	bin, err := workload.ByName("sjeng").Build()
	if err != nil {
		t.Fatal(err)
	}
	hard, _, err := redfat.Harden(bin, d)
	if err != nil {
		t.Fatal(err)
	}
	_, _, herr := redfat.Harden(hard, d)
	_, aerr := redfat.Analyze(hard, d)
	if herr == nil || aerr == nil || aerr.Error() != herr.Error() {
		t.Errorf("re-hardening: Harden error %v, Analyze error %v", herr, aerr)
	}
}
