// Command perfbench is the repository's benchmark. In one process it runs
// one of three workloads through the paper's harden → verify → run
// pipelines, checks every output against an independent reference, and
// prints its metrics as JSON on the last line of standard output. See
// README.md for the workloads, the metrics and their bounds.
//
//	perfbench --workload spec-ref --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"
)

// workload is one of the benchmark's input sets.
type workload interface {
	// setup builds the inputs, makes the reference runs and warms up.
	setup(m *meter) error
	// order returns one pass over the units, in a shuffled order.
	order(rng *rand.Rand) []unit
	// check compares a complete pass with the committed paper numbers.
	check(p *pass) error
}

// unit is one closed-loop job; the next starts when it returns. An error
// is one failed operation.
type unit struct {
	id  int // index among the workload's units
	key string
	run func(m *meter, p *pass) error
}

var workloads = map[string]func() (workload, error){
	"spec-ref":      func() (workload, error) { return newSpecRef() },
	"chrome-harden": func() (workload, error) { return newChromeHarden() },
	"detect":        func() (workload, error) { return newDetect() },
}

// A run sets up at least minSetups times and until its set-ups have
// taken minSetupTime; setup_s is their median. The time floor gives
// short set-ups (spec-ref's take about 30 ms) enough samples.
const (
	minSetups    = 5
	minSetupTime = 2 * time.Second
)

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	name := flag.String("workload", "", "workload: spec-ref, chrome-harden or detect")
	seed := flag.Int64("seed", 1, "seed of the shuffled unit order")
	seconds := flag.Float64("seconds", 30, "length of the timed phase, in seconds")
	trace := flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: traced run, per-layer metrics")
	flag.Parse()
	mk, ok := workloads[*name]
	if !ok || (*trace != 0 && *trace != 1) || flag.NArg() != 0 {
		flag.Usage()
		os.Exit(2)
	}
	w, err := mk()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	r := &runner{w: w, name: *name, seed: *seed, traced: *trace == 1,
		budget: time.Duration(*seconds * float64(time.Second))}
	res, err := r.run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(map[string]any{
		"workload": *name, "seed": *seed, "trace": *trace, "passes": len(r.passes),
		"num_cpu": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
	})
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n%s\n", env, out)
}

type runner struct {
	w      workload
	name   string
	seed   int64
	traced bool
	budget time.Duration

	m        *meter
	setups   []*pass
	setupS   []float64
	passes   []*pass
	ref      map[string]string // the first pass's per-unit guest identity
	elapsed  time.Duration
	problems []string // failed whole-run checks
}

func (r *runner) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	fmt.Fprintln(os.Stderr, "perfbench:", msg)
}

func (r *runner) run() (*result, error) {
	var err error
	if r.m, err = newMeter(); err != nil {
		return nil, err
	}
	var setupTime time.Duration
	for len(r.setups) < minSetups || setupTime < minSetupTime {
		p := newPass(r.traced, nil)
		r.m.pass = p
		d := r.m.call(lSetup, func() { err = r.w.setup(r.m) })
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.setups = append(r.setups, p)
		r.setupS = append(r.setupS, d.Seconds())
		setupTime += d
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d set-ups in %.3fs, median %.3fs\n",
		len(r.setups), setupTime.Seconds(), median(r.setupS))

	// Timed phase: whole passes while the next one is expected to fit in
	// the budget. A traced run alternates untraced and traced passes.
	rng := rand.New(rand.NewSource(r.seed))
	minPasses := 1
	if r.traced {
		minPasses = 2
	}
	start := time.Now()
	for len(r.passes) < minPasses ||
		time.Since(start)+r.elapsed/time.Duration(len(r.passes)) <= r.budget {
		p := newPass(r.traced && len(r.passes)%2 == 1, r.ref)
		r.m.pass = p
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		selfOK := true
		for _, u := range r.w.order(rng) {
			selfOK = r.m.runUnit(u) && selfOK
		}
		runtime.ReadMemStats(&ms1)
		p.allocB = ms1.TotalAlloc - ms0.TotalAlloc
		p.gcCount = ms1.NumGC - ms0.NumGC
		p.gcPauseNS = ms1.PauseTotalNs - ms0.PauseTotalNs
		if p.traced {
			runProbes(r.m)
		}
		r.elapsed = time.Since(start)
		r.passes = append(r.passes, p)
		fmt.Fprintf(os.Stderr, "perfbench: pass %d traced=%v wall %.3fs harden %.3fs verify %.3fs run %.3fs gc %d\n",
			len(r.passes), p.traced, float64(p.wallNS)/1e9, float64(p.ns[lHarden])/1e9,
			float64(p.ns[lVerify])/1e9, float64(p.ns[lHard])/1e9, p.gcCount)
		if !selfOK {
			r.problem("pass %d: unit self times do not add up to the unit spans", len(r.passes))
		}
		if err := r.w.check(p); err != nil {
			r.problem("pass %d: %v", len(r.passes), err)
		}
		p.end()
		if r.ref == nil {
			r.ref = p.sig
		}
		if p.mismatches > 0 {
			r.problem("pass %d: guest results of %d units differ from pass 1", len(r.passes), p.mismatches)
		}
	}

	res := &result{Metrics: map[string]metric{}}
	for _, p := range r.passes {
		res.Attempted += p.attempted
		res.Failed += p.failed
	}
	res.Correct = res.Failed == 0 && len(r.problems) == 0
	if r.traced {
		r.layerMetrics(res.Metrics)
		path, err := r.m.writeSpans(".bench_build/perfbench",
			fmt.Sprintf("spans-%s-seed%d.json", r.name, r.seed))
		if err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "perfbench: spans written to", path)
	} else {
		r.endToEnd(res.Metrics)
	}
	return res, nil
}

// perPass returns f of every pass (traced or untraced ones, as selected).
func (r *runner) perPass(traced bool, f func(p *pass) float64) []float64 {
	var xs []float64
	for _, p := range r.passes {
		if p.traced == traced {
			xs = append(xs, f(p))
		}
	}
	return xs
}

// unitMedians returns, for each unit, the median of its host time in
// sampled layer l over the untraced passes, in ns. Taking the median per
// unit keeps a burst of host interference from moving a whole pass.
func (r *runner) unitMedians(l layer) []float64 {
	i := 0
	for sampled[i] != l {
		i++
	}
	var per [][]float64
	for _, s := range r.m.log {
		for int(s.unit) >= len(per) {
			per = append(per, nil)
		}
		per[s.unit] = append(per[s.unit], float64(s.ns[i]))
	}
	meds := make([]float64, 0, len(per))
	for _, xs := range per {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return meds
}

// typicalSeconds is the host time one pass typically spends in sampled
// layer l: the units' medians, summed.
func (r *runner) typicalSeconds(l layer) float64 {
	sum := 0.0
	for _, v := range r.unitMedians(l) {
		sum += v
	}
	return sum / 1e9
}

func (r *runner) endToEnd(out map[string]metric) {
	set := func(name, unit string, v float64) { out[name] = metric{Value: v, Unit: unit} }
	med := func(f func(p *pass) float64) float64 { return median(r.perPass(false, f)) }
	first := r.passes[0]
	wall := r.typicalSeconds(lUnit)
	set("setup_s", "s", median(r.setupS))
	set("wall_s", "s", wall)
	set("harden_s", "s", r.typicalSeconds(lHarden))
	set("verify_s", "s", r.typicalSeconds(lVerify))
	set("run_s", "s", r.typicalSeconds(lHard))
	set("guest_overhead_x", "x", first.overheadX)
	set("code_growth_x", "x", ratio(float64(first.hardBytes), float64(first.origBytes)))
	// A case's latency is its median over the passes. A percentile of
	// each pass's latencies would follow the noise: on chrome-harden the
	// 15 units form two clusters, and the boundary between them moves
	// with how widely the units scatter.
	lat := r.unitMedians(lUnit)
	set("case_p50_ms", "ms", quantile(lat, 0.5)/1e6)
	set("case_p90_ms", "ms", quantile(lat, 0.9)/1e6)
	set("cases_per_s", "1/s", ratio(float64(first.attempted), wall))
	set("alloc_mb", "MB", med(func(p *pass) float64 { return float64(p.allocB) / mib }))
}
