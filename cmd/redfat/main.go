// redfat is the binary-hardening tool: it rewrites a RELF binary with
// RedFat memory-error instrumentation (the paper's prog.orig → prog.hard
// step).
//
// Usage:
//
//	redfat [flags] -o prog.hard.relf prog.relf
//
// The default configuration is the fully optimized combined
// (Redzone)+(LowFat) check on reads and writes. Notable flags:
//
//	-allowlist f   use a profile-generated allow-list (see rfprofile)
//	-lowfat=false  redzone-only checking (the conservative baseline)
//	-reads=false   write-only protection (the paper's fastest mode)
//	-size=false    drop metadata hardening
//	-O0            disable all optimizations (elim/batch/merge/elimdom)
//	-profile       emit the profiling-phase binary of the Fig. 5 workflow
//	-verify        statically validate the rewriting before writing it
//	-analysis-report f  dump per-function dataflow statistics as JSON
//	-runpack DIR   capture the rewrite as a digest-signed runpack
//	               (input + hardened image + knobs) that `rfpack replay`
//	               re-hardens and diffs byte-for-byte (DESIGN.md §13)
package main

import (
	"flag"
	"fmt"
	"os"

	"redfat"
	"redfat/internal/runpack"
)

func main() {
	out := flag.String("o", "", "output file (required)")
	lowfat := flag.Bool("lowfat", true, "enable the combined lowfat+redzone check")
	reads := flag.Bool("reads", true, "instrument reads as well as writes")
	size := flag.Bool("size", true, "enable metadata (size) hardening")
	elim := flag.Bool("elim", true, "enable check elimination")
	batch := flag.Bool("batch", true, "enable check batching")
	merge := flag.Bool("merge", true, "enable check merging")
	elimDom := flag.Bool("elimdom", true, "enable dominator-based redundant-check elimination")
	localLive := flag.Bool("local-liveness", false, "restrict liveness to block-local scans (ablation)")
	noIndirect := flag.Bool("noindirect", false, "disable indirect-flow recovery in the dataflow engine (ablation)")
	o0 := flag.Bool("O0", false, "disable all optimizations")
	profileMode := flag.Bool("profile", false, "build the profiling-phase binary")
	allowPath := flag.String("allowlist", "", "allow-list file from the profiling phase")
	maxBatch := flag.Int("maxbatch", 8, "maximum accesses per trampoline")
	verbose := flag.Bool("v", false, "print the instrumentation report")
	metricsPath := flag.String("metrics", "", "write the instrumentation metrics as JSON to this file")
	doVerify := flag.Bool("verify", false, "run the translation validator on the result and fail on violations")
	analysisPath := flag.String("analysis-report", "", "write per-function dataflow analysis statistics as JSON to this file")
	packDir := flag.String("runpack", "", "capture the rewrite as a digest-signed runpack in this directory")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: redfat [flags] -o out.relf in.relf\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 || *out == "" {
		flag.Usage()
		os.Exit(2)
	}

	bin, err := redfat.LoadBinary(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	opt := redfat.Options{
		LowFat:        *lowfat,
		CheckReads:    *reads,
		SizeCheck:     *size,
		Elim:          *elim && !*o0,
		Batch:         *batch && !*o0,
		Merge:         *merge && !*o0,
		ElimDom:       *elimDom && !*o0,
		LocalLiveness: *localLive,
		NoIndirect:    *noIndirect,
		Profile:       *profileMode,
		MaxBatch:      *maxBatch,
	}
	var allowData []byte
	if *allowPath != "" {
		allow, err := redfat.LoadAllowList(*allowPath)
		if err != nil {
			fatal(err)
		}
		opt.AllowList = allow
		if allowData, err = os.ReadFile(*allowPath); err != nil {
			fatal(err)
		}
	}
	if *analysisPath != "" {
		a, err := redfat.Analyze(bin, opt)
		if err != nil {
			fatal(err)
		}
		f, err := os.Create(*analysisPath)
		if err != nil {
			fatal(err)
		}
		if err := a.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	hard, rep, err := redfat.Harden(bin, opt)
	if err != nil {
		fatal(err)
	}
	if *doVerify {
		vrep, err := redfat.VerifyHardened(bin, hard)
		if err != nil {
			fatal(err)
		}
		if !vrep.OK() {
			vrep.Render(os.Stderr)
			fatal(fmt.Errorf("translation validation failed"))
		}
	}
	if err := redfat.SaveBinary(hard, *out); err != nil {
		fatal(err)
	}
	if *packDir != "" {
		origData, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		if err := runpack.PackRewrite(*packDir, os.Args[1:], origData, hard, opt, allowData, rep); err != nil {
			fatal(err)
		}
		fmt.Printf("runpack written to %s\n", *packDir)
	}
	if *verbose {
		fmt.Println("redfat:", rep)
	}
	if *metricsPath != "" {
		reg := redfat.NewMetrics()
		rep.Publish(reg)
		f, err := os.Create(*metricsPath)
		if err != nil {
			fatal(err)
		}
		if err := reg.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("%s: %d checks in %d trampolines\n", *out, rep.Checks, rep.Batches)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "redfat:", err)
	os.Exit(1)
}
