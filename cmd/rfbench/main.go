// rfbench regenerates the paper's evaluation tables and figures (§7).
//
// Usage:
//
//	rfbench -table1 [-scale 1.0]   SPEC CPU2006 slow-downs (Table 1)
//	rfbench -falsepos              false positives without the allow-list (§7.1)
//	rfbench -table2                CVE + Juliet detection (Table 2)
//	rfbench -figure8               Chrome/Kraken overhead (Figure 8)
//	rfbench -ablation              patch tactics and batch-width ablations
//	rfbench -all                   all five of the above
//
// Experiments fan their independent units (benchmark × configuration
// cells, Juliet cases, Kraken sub-benchmarks) over a worker pool of
// -parallel goroutines; results are assembled deterministically, so the
// tables are byte-identical at any -parallel value. -progress=false
// silences the per-unit progress lines on stderr.
//
// -json path additionally writes every experiment that ran as a single
// structured JSON document (see internal/bench.Results), including the
// aggregate telemetry snapshot, so downstream tooling can consume the
// numbers without scraping the text tables.
//
// -cpuprofile / -memprofile write pprof profiles of the harness itself
// (host-side performance, not guest cycles). Host wall-clock of the
// pipelines these experiments run is measured by perfbench, with
// repeated passes and a per-layer split: bash perfbench/run.sh
// --workload spec-ref|chrome-harden|detect --seed 1 --seconds 35.
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"redfat/internal/bench"
	"redfat/internal/obs"
	"redfat/internal/telemetry"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "rfbench:", err)
		os.Exit(1)
	}
}

func run() error {
	table1 := flag.Bool("table1", false, "run the SPEC CPU2006 performance table")
	falsepos := flag.Bool("falsepos", false, "run the false-positive experiment")
	table2 := flag.Bool("table2", false, "run the non-incremental detection table")
	figure8 := flag.Bool("figure8", false, "run the Chrome/Kraken experiment")
	ablation := flag.Bool("ablation", false, "run the ablation studies")
	guestprof := flag.Bool("guestprof", false, "profile guest execution per benchmark (hot sites + folded stacks)")
	guestprofDir := flag.String("guestprofdir", filepath.Join("results", "guestprof"),
		"output directory for -guestprof folded-stack files (empty = don't write)")
	all := flag.Bool("all", false, "run -table1 -falsepos -table2 -figure8 -ablation")
	scale := flag.Float64("scale", 1.0, "workload scale for table1/falsepos (1.0 = full ref)")
	fillers := flag.Int("fillers", 20000, "filler functions in the Chrome-scale image")
	kscale := flag.Uint64("kscale", 5000, "Kraken workload scale")
	parallel := flag.Int("parallel", bench.DefaultParallel(), "worker-pool width for experiment units")
	progress := flag.Bool("progress", true, "print per-unit progress lines to stderr")
	jsonPath := flag.String("json", "", "write the results of every experiment run as JSON to this file")
	cpuprofile := flag.String("cpuprofile", "", "write a pprof CPU profile of the harness to this file")
	memprofile := flag.String("memprofile", "", "write a pprof heap profile of the harness to this file")
	listen := flag.String("listen", "", "serve live introspection HTTP (/metrics /snapshot ...) on ADDR during and after the run, until killed")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "rfbench:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "rfbench:", err)
			}
		}()
	}

	h := &bench.Harness{Parallel: *parallel}
	if *progress {
		h.Progress = os.Stderr
	}

	ran := false
	w := os.Stdout
	results := &bench.Results{Scale: *scale}
	// Open the JSON sink up front so a bad path fails before hours of
	// experiments, not after. The JSON document also carries the aggregate
	// telemetry snapshot, so only collect metrics when -json or -listen
	// wants them.
	var jsonFile *os.File
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		jsonFile = f
	}
	if jsonFile != nil || *listen != "" {
		h.Metrics = telemetry.New()
	}
	// Bind the introspection listener up front so a bad -listen address
	// fails before hours of experiments, and start serving immediately —
	// mid-run scrapes answer with the empty pre-run snapshot instead of
	// hanging in the accept backlog until the experiments finish.
	var obsSrv *obs.Server
	if *listen != "" {
		ln, err := net.Listen("tcp", *listen)
		if err != nil {
			return err
		}
		obsSrv = obs.NewServer()
		fmt.Fprintf(os.Stderr, "rfbench: listening on http://%s\n", ln.Addr())
		go func() {
			if serr := obs.Serve(ln, obsSrv); serr != nil {
				fmt.Fprintln(os.Stderr, "rfbench: introspection server:", serr)
			}
		}()
	}
	if *all || *table1 {
		ran = true
		fmt.Fprintf(w, "=== Table 1: SPEC CPU2006 (scale %.2f) ===\n", *scale)
		rows, err := h.Table1(*scale, w)
		if err != nil {
			return err
		}
		summary := bench.Summarize(rows)
		results.Table1, results.Table1Summary = rows, &summary
		fmt.Fprintln(w)
	}
	if *all || *falsepos {
		ran = true
		fmt.Fprintln(w, "=== §7.1 False positives (full checking, no allow-list) ===")
		rows, err := h.FalsePositives(*scale, w)
		if err != nil {
			return err
		}
		results.FalsePositives = rows
		fmt.Fprintln(w)
	}
	if *all || *table2 {
		ran = true
		fmt.Fprintln(w, "=== Table 2: non-incremental bounds errors ===")
		rows, err := h.Table2(w)
		if err != nil {
			return err
		}
		results.Table2 = rows
		fmt.Fprintln(w, "--- extension: temporal errors (ours) ---")
		ext, err := h.Table2Extended(w)
		if err != nil {
			return err
		}
		results.Table2Extended = ext
		fmt.Fprintln(w)
	}
	if *all || *figure8 {
		ran = true
		fmt.Fprintf(w, "=== Figure 8: Chrome/Kraken, write protection (%d fillers) ===\n", *fillers)
		rows, gm, err := h.Figure8(*fillers, *kscale, w)
		if err != nil {
			return err
		}
		results.Figure8 = &bench.Figure8Result{Rows: rows, GeoMean: gm}
		fmt.Fprintln(w)
	}
	if *all || *ablation {
		ran = true
		abl := &bench.Ablations{}
		fmt.Fprintln(w, "=== Ablation: patch tactics ===")
		tactics, err := h.Tactics(*fillers, w)
		if err != nil {
			return err
		}
		abl.Tactics = tactics
		fmt.Fprintln(w, "\n=== Ablation: batch width (povray) ===")
		batches, err := h.BatchSweep("povray", *scale, w)
		if err != nil {
			return err
		}
		abl.Batch = batches
		fmt.Fprintln(w, "\n=== Ablation: clobber specialization (sjeng) ===")
		clobber, err := h.ClobberSweep("sjeng", *scale, w)
		if err != nil {
			return err
		}
		abl.Clobber = clobber
		fmt.Fprintln(w, "\n=== Ablation: dataflow engine (full suite) ===")
		dflow, err := h.DataflowSweep(nil, *scale, w)
		if err != nil {
			return err
		}
		abl.Dataflow = dflow
		fmt.Fprintln(w, "\n=== Ablation: indirect-flow recovery (switch-dense suite) ===")
		ind, err := h.IndirectSweep(nil, *scale, w)
		if err != nil {
			return err
		}
		abl.Indirect = ind
		fmt.Fprintln(w, "\n=== Ablation: coverage-guided profiling boost (h264ref) ===")
		fz, err := h.FuzzBoostStudy("h264ref", []int{1, 50, 200}, w)
		if err != nil {
			return err
		}
		abl.Fuzz = fz
		results.Ablation = abl
		fmt.Fprintln(w)
	}
	if *guestprof {
		ran = true
		fmt.Fprintf(w, "=== Guest profiles (scale %.2f, production config) ===\n", *scale)
		rows, err := h.GuestProfiles(*scale, *guestprofDir, w)
		if err != nil {
			return err
		}
		results.GuestProfiles = rows
		if *guestprofDir != "" {
			fmt.Fprintf(w, "folded stacks written to %s%c<benchmark>.folded\n",
				*guestprofDir, os.PathSeparator)
		}
		fmt.Fprintln(w)
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}
	if jsonFile != nil {
		results.Telemetry = h.Metrics.Snapshot()
		if err := results.WriteJSON(jsonFile); err != nil {
			return err
		}
		if err := jsonFile.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "results written to %s\n", *jsonPath)
	}
	if obsSrv != nil {
		// Publish the aggregate snapshot (host wall-clock series stripped,
		// so scrapes are deterministic) and serve until killed.
		obsSrv.Publish(&obs.State{Telemetry: h.Metrics.Snapshot().StripHostTime()})
		fmt.Fprintln(os.Stderr, "rfbench: run complete; serving introspection until killed")
		select {}
	}
	return nil
}
