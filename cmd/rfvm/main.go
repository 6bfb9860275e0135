// rfvm runs a RELF binary on the RF64 virtual machine.
//
// Usage:
//
//	rfvm [-input 1,2,3] [-hardened] [-memcheck] [-abort] [-max N] prog.relf
//
// Plain runs use the baseline glibc-style allocator. -hardened selects the
// RedFat runtime (the LD_PRELOAD model) and is required for binaries
// produced by the redfat tool. -memcheck runs under the Valgrind Memcheck
// model instead. The execution knobs (-nojit, -jit-threshold,
// -nolibccheck and the RedFat heap's allocator modes -quarantine, -canary
// and -underalloc, which require -hardened) are the fields of
// redfat.Knobs. The flags fill one redfat.RunOptions, which runs the
// program and which a -runpack records as its replay spec. Host timing
// of runs like these comes from perfbench (bash perfbench/run.sh
// --workload spec-ref|chrome-harden|detect), which repeats each pass and
// splits the wall time per layer.
//
// Observability: -stats collects telemetry during the run and prints a
// report (retired instructions per opcode, allocator activity, check
// outcomes, RTCALL cost); -top bounds the hottest-site listing; -events N
// prints the last N events of the flight ring (below) recorded at
// execution grain: retires, each named by its disassembly, trampoline
// entries, runtime calls, check verdicts, alloc/free. It is the
// instruction trace: -events N -max C shows the run up to guest cycle C,
// where the cycle budget ends it. Telemetry never alters cycle
// accounting.
//
// Forensics: -forensics resolves each detected error into a symbolized
// ASan-style report (owning object, allocation/free backtraces);
// -profile-guest samples guest execution by cycle budget and prints a
// hot-site table; -folded FILE writes the profile as folded stacks
// (flamegraph input); -trace-out FILE writes a Chrome trace-event JSON
// (the flight ring at execution grain plus profile samples) loadable in
// chrome://tracing. All of it is host-side only: guest cycles are
// bit-identical either way.
//
// Run artifacts: -runpack DIR captures the run as a digest-signed
// runpack (the executed binary, replay spec, packed result, forensic
// reports, telemetry, flight-recorder dump) that `rfpack verify`
// integrity-checks and `rfpack replay` reproduces byte-for-byte
// (DESIGN.md §13). -runpack implies forensics so detection reports are
// packed.
//
// Live introspection: -listen ADDR serves /metrics (Prometheus),
// /snapshot (telemetry JSON), /traces (the JIT trace table with
// per-reason deopt histograms), /profile (folded flamegraph) and
// /flight (the flight-recorder ring) over HTTP, publishing the final
// state after the run and serving until the process is killed
// (DESIGN.md §15). The server comes up before the run, serving the
// empty pre-run snapshot (handlers only ever read published immutable
// state, never the live ring or registry, so mid-run scrapes are
// safe); a run that fails outright reports its error and exits
// instead of serving. An always-on flight recorder keeps the last -flight
// events (block/trace entries, JIT compiles, deopts with reason, TLB
// flushes, check failures, budget aborts) and dumps to stderr
// automatically on a detection or budget abort, unless -events prints
// its window, which is then the dump. -events and -trace-out
// switch that one ring to execution grain, which pins the run to the
// interpreter, and widen it to the largest of -flight, the -events
// window and 4096 events for -trace-out. Both are host-side knobs: guest
// cycles are bit-identical with them on or off, and neither enters the
// runpack's replay spec.
//
// Exit codes are stable so runpack replay and CI scripts can assert on
// the detection kind:
//
//	0   clean run (and the guest exited 0)
//	1   tool or runtime failure
//	2   bad command line
//	10  out-of-bounds write detected
//	11  out-of-bounds read detected
//	12  use-after-free detected
//	13  corrupted-metadata detected
//	14  invalid free detected
//	20  cycle-budget abort
//
// When the guest itself exits nonzero without any detection, rfvm
// passes the guest code through masked to 7 bits; detection codes take
// precedence over the guest code.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"

	"redfat"
	"redfat/internal/obs"
	"redfat/internal/runpack"
)

func main() {
	// ro is the one description of the run: the flags fill it, redfat.Run
	// executes it and a runpack records it as the replay spec.
	var ro redfat.RunOptions
	input := flag.String("input", "", "comma-separated input values for rf_input")
	flag.BoolVar(&ro.Hardened, "hardened", false, "run with the RedFat runtime (libredfat model)")
	flag.BoolVar(&ro.Memcheck, "memcheck", false, "run under the Memcheck model")
	flag.BoolVar(&ro.Abort, "abort", false, "abort on the first detected memory error")
	flag.Uint64Var(&ro.MaxCycles, "max", 0, "cycle budget (0 = default)")
	stats := flag.Bool("stats", false, "collect telemetry and print a run report")
	top := flag.Int("top", 10, "with -stats, hottest instrumentation sites to list")
	events := flag.Int("events", 0, "record execution events and print the last N, each retire as its disassembly (-max C stops the run at guest cycle C)")
	forensic := flag.Bool("forensics", false, "resolve detected errors into symbolized forensic reports")
	forensicJSON := flag.Bool("forensics-json", false, "with -forensics, also print the reports as JSON")
	profGuest := flag.Bool("profile-guest", false, "sample guest execution and print a hot-site profile")
	profInterval := flag.Uint64("profile-interval", 0, "guest cycles between profile samples (0 = default)")
	folded := flag.String("folded", "", "write the guest profile as folded stacks (flamegraph input) to FILE")
	traceOut := flag.String("trace-out", "", "write a Chrome trace-event JSON (events + profile samples) to FILE")
	ro.Knobs.RegisterFlags(flag.CommandLine)
	doVerify := flag.Bool("verify", false, "with -hardened, structurally validate the binary before running it")
	packDir := flag.String("runpack", "", "capture the run as a digest-signed runpack in this directory (implies forensics)")
	listen := flag.String("listen", "", "serve live introspection HTTP (/metrics /snapshot /traces /profile /flight) on ADDR until killed")
	flightCap := flag.Int("flight", 0, "flight-recorder ring capacity in events (0 = default)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: rfvm [flags] prog.relf\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	if ro.HeapModes() && !ro.Hardened {
		fatal(fmt.Errorf("-quarantine, -canary and -underalloc require -hardened"))
	}
	bin, err := redfat.LoadBinary(flag.Arg(0))
	if err != nil {
		fatal(err)
	}
	if *doVerify {
		if !ro.Hardened {
			fatal(fmt.Errorf("-verify requires -hardened"))
		}
		vrep, err := redfat.VerifyStructural(bin)
		if err != nil {
			fatal(err)
		}
		if !vrep.OK() {
			vrep.Render(os.Stderr)
			fatal(fmt.Errorf("binary failed structural validation"))
		}
	}
	if *input != "" {
		for _, f := range strings.Split(*input, ",") {
			v, err := strconv.ParseUint(strings.TrimSpace(f), 0, 64)
			if err != nil {
				fatal(fmt.Errorf("bad -input value %q", f))
			}
			ro.Input = append(ro.Input, v)
		}
	}
	var reg *redfat.Metrics
	if *stats {
		reg = redfat.NewMetrics()
		ro.Metrics = reg
	}
	ro.Forensics = *forensic || *packDir != ""
	// The guest profiler needs interpreter-grain sampling, which pins
	// execution to tier 0 — so -listen alone must NOT enable it, or the
	// /traces endpoint would always be empty. /profile serves data only
	// when profiling is explicitly requested.
	var prof *redfat.GuestProfiler
	if *profGuest || *folded != "" || *traceOut != "" {
		prof = redfat.NewGuestProfiler(*profInterval)
		ro.Profiler = prof
	}
	// The flight recorder is always on: at default grain it costs nothing
	// off the hot path, and its ring is deterministic in guest cycles.
	// -events and -trace-out read the same ring at execution grain,
	// sized so that each keeps at least its own window.
	ringCap := *flightCap
	if ringCap <= 0 {
		ringCap = obs.DefaultFlightCapacity
	}
	if *traceOut != "" && ringCap < 4096 {
		ringCap = 4096
	}
	if *events > ringCap {
		ringCap = *events
	}
	flight := redfat.NewFlight(ringCap)
	flight.Execution = *events > 0 || *traceOut != ""
	ro.Flight = flight
	var srv *redfat.ObsServer
	if *listen != "" {
		if reg == nil {
			reg = redfat.NewMetrics()
			ro.Metrics = reg
		}
		ln, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			fatal(lerr)
		}
		srv = redfat.NewObsServer()
		srv.Publish(&redfat.ObsState{Telemetry: reg.Snapshot().StripHostTime()})
		fmt.Fprintf(os.Stderr, "rfvm: listening on http://%s\n", ln.Addr())
		go func() {
			if serr := redfat.ServeObs(ln, srv); serr != nil {
				fmt.Fprintln(os.Stderr, "rfvm: introspection server:", serr)
			}
		}()
	}
	res, err := redfat.Run(bin, ro)
	dump := flight.Dump()
	if res != nil {
		// -forensics prints the resolved reports; a bare -runpack only
		// packs them.
		showReports := *forensic
		sym := redfat.NewSymbolizer(bin)
		for i := range res.Traces {
			res.Traces[i].Symbol = sym.Format(res.Traces[i].EntryPC)
		}
		if len(res.Output) > 0 {
			os.Stdout.Write(res.Output)
			fmt.Println()
		}
		for _, e := range res.Errors {
			fmt.Fprintf(os.Stderr, "rfvm: detected %v\n", &e)
		}
		if showReports {
			for _, r := range res.Reports {
				if werr := r.WriteText(os.Stderr); werr != nil {
					fatal(werr)
				}
				if *forensicJSON {
					if werr := r.WriteJSON(os.Stderr); werr != nil {
						fatal(werr)
					}
				}
			}
		}
		if n := len(res.Errors); n > 0 {
			fmt.Fprintf(os.Stderr, "rfvm: %d memory error(s) at %d distinct site(s)\n",
				n, redfat.DistinctErrorSites(res.Errors))
		}
		// Dump the flight ring automatically when something went wrong:
		// a detection or a cycle-budget abort. With -events, its window
		// below is the dump.
		var cle *redfat.CycleLimitError
		if *events == 0 && (len(res.Errors) > 0 || errors.As(err, &cle)) {
			if werr := dump.WriteText(os.Stderr); werr != nil {
				fatal(werr)
			}
		}
		fmt.Printf("exit=%d cycles=%d instructions=%d\n", res.ExitCode, res.Cycles, res.Insts)
		if *stats && *top > 0 && len(res.Checks) > 0 {
			fmt.Printf("coverage %.1f%%; hottest checks:\n", res.Coverage*100)
			for i, c := range res.Checks {
				if i >= *top {
					break
				}
				fmt.Printf("  %#x %-8s ×%-3d %12d execs  %s\n",
					c.PC, c.Mode, c.Merged, c.Execs, c.Operand)
			}
		}
		if *events > 0 {
			window := *dump
			if n := len(window.Events); n > *events {
				window.Events = window.Events[n-*events:]
			}
			fmt.Printf("--- last %d of %d execution events ---\n",
				len(window.Events), window.Total)
			if werr := window.WriteText(os.Stdout); werr != nil {
				fatal(werr)
			}
		}
		if reg != nil {
			// Host wall-clock series (.ns/.ms) are stripped so -stats output
			// depends only on guest-deterministic quantities.
			fmt.Println("--- telemetry ---")
			reg.Snapshot().StripHostTime().WriteText(os.Stdout)
			if len(res.Traces) > 0 {
				fmt.Println("--- jit traces ---")
				writeTraceTable(os.Stdout, res.Traces)
			}
		}
		if prof != nil && *profGuest {
			if werr := redfat.WriteHotSites(os.Stdout, prof, sym, *top); werr != nil {
				fatal(werr)
			}
		}
		if *folded != "" {
			if werr := writeFile(*folded, func(f *os.File) error {
				return redfat.WriteFolded(f, prof, sym)
			}); werr != nil {
				fatal(werr)
			}
		}
		if *traceOut != "" {
			if werr := writeFile(*traceOut, func(f *os.File) error {
				return redfat.WriteChromeTrace(f, dump, prof, sym)
			}); werr != nil {
				fatal(werr)
			}
		}
		if srv != nil {
			st := &redfat.ObsState{
				Telemetry: reg.Snapshot().StripHostTime(),
				Traces:    res.Traces,
				Flight:    dump,
			}
			if prof != nil {
				var fb bytes.Buffer
				if werr := redfat.WriteFolded(&fb, prof, sym); werr == nil {
					st.Profile = fb.String()
				}
			}
			srv.Publish(st)
		}
	}
	if *packDir != "" && res != nil {
		raw, rerr := os.ReadFile(flag.Arg(0))
		if rerr != nil {
			fatal(rerr)
		}
		if perr := runpack.PackRun(*packDir, os.Args[1:], raw, bin, ro, res, err); perr != nil {
			fatal(perr)
		}
		fmt.Fprintf(os.Stderr, "rfvm: runpack written to %s\n", *packDir)
	}
	if err != nil {
		// Detections were already rendered from res.Errors; anything else
		// (cycle budget, runtime failure) is reported here — before the
		// serve-forever branch, so -listen never swallows the diagnostic.
		var me *redfat.MemError
		if !errors.As(err, &me) {
			fmt.Fprintln(os.Stderr, "rfvm:", err)
		}
	}
	if srv != nil {
		if res == nil {
			// The run died before producing a result: there is nothing to
			// publish, so exit with the failure instead of serving the
			// empty pre-run snapshot forever.
			fmt.Fprintln(os.Stderr, "rfvm: run failed; not serving introspection")
		} else {
			// Keep serving the published final state until the process is
			// killed; the marker line lets scrapers synchronize on run
			// completion.
			fmt.Fprintln(os.Stderr, "rfvm: run complete; serving introspection until killed")
			select {}
		}
	}
	// Stable exit codes: detections and cycle-budget aborts map to their
	// documented codes (see the package comment); other failures exit 1;
	// clean runs pass the guest's exit code through.
	var guest uint64
	var errs []redfat.MemError
	if res != nil {
		guest, errs = res.ExitCode, res.Errors
	}
	os.Exit(runpack.RunExit(guest, errs, err))
}

// writeTraceTable renders the JIT trace table: one line per compiled
// superblock, slice-ordered (compilation order), with nonzero per-reason
// deopt counts appended in reason-enum order.
func writeTraceTable(f *os.File, rows []redfat.TraceRow) {
	for _, r := range rows {
		fmt.Fprintf(f, "  %#x-%#x %-24s steps=%-3d checks=%-3d entries=%d",
			r.EntryPC, r.EndPC, r.Symbol, r.Steps, r.Checks, r.Entries)
		for _, d := range r.Deopts {
			fmt.Fprintf(f, " deopt.%s=%d", d.Reason, d.Count)
		}
		fmt.Fprintln(f)
	}
}

func writeFile(path string, fill func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fill(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rfvm:", err)
	os.Exit(1)
}
