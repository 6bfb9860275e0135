package bench

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"

	"redfat/internal/telemetry"
)

// Harness runs the experiments of this package over a bounded worker
// pool. The zero value is the serial harness: one worker, no progress
// output, no telemetry.
//
// Every experiment decomposes into independent units (a benchmark, a
// benchmark × configuration cell, a Juliet case, ...), the units fan out
// over Parallel workers, and the results are assembled and rendered in
// unit order afterwards — so the rendered tables are byte-identical at
// any worker count. Each unit that needs telemetry gets its own private
// Registry, merged into Metrics (in unit order, from one goroutine) only
// after the pool has quiesced; see the single-owner contract in package
// telemetry.
type Harness struct {
	// Parallel is the worker-pool width; <= 0 selects one worker.
	Parallel int
	// Progress, when set, receives one line per completed unit.
	Progress io.Writer
	// Metrics, when set, aggregates telemetry across all units.
	Metrics *telemetry.Registry
}

// workers returns the effective pool width.
func (h *Harness) workers() int {
	if h == nil || h.Parallel <= 0 {
		return 1
	}
	return h.Parallel
}

// DefaultParallel is the recommended pool width for interactive use.
func DefaultParallel() int { return runtime.NumCPU() }

// fanOut runs units 0..n-1 through fn on the harness's worker pool and
// returns the per-unit results in index order. The first failure (lowest
// unit index among observed failures) cancels the remaining un-started
// units and is returned; units already in flight run to completion.
// name(i) labels unit i in progress lines. When h.Metrics is set, every
// unit receives a fresh private registry; the registries of completed
// units are merged into h.Metrics in unit order after all workers exit.
func fanOut[T any](h *Harness, what string, n int, name func(int) string, fn func(i int, reg *telemetry.Registry) (T, error)) ([]T, error) {
	results := make([]T, n)
	errs := make([]error, n)
	var regs []*telemetry.Registry
	if h != nil && h.Metrics != nil {
		regs = make([]*telemetry.Registry, n)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	idx := make(chan int, n)
	for i := 0; i < n; i++ {
		idx <- i
	}
	close(idx)

	var (
		mu   sync.Mutex
		done int
	)
	report := func(i int, status string) {
		if h == nil || h.Progress == nil {
			return
		}
		mu.Lock()
		done++
		fmt.Fprintf(h.Progress, "%s %s: %s (%d/%d)\n", what, name(i), status, done, n)
		mu.Unlock()
	}

	width := h.workers()
	if width > n {
		width = n
	}
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				if ctx.Err() != nil {
					return
				}
				var reg *telemetry.Registry
				if regs != nil {
					reg = telemetry.New()
					regs[i] = reg
				}
				res, err := fn(i, reg)
				if err != nil {
					errs[i] = err
					report(i, "FAIL: "+err.Error())
					cancel()
					continue
				}
				results[i] = res
				report(i, "ok")
			}
		}()
	}
	wg.Wait()

	// Single-owner aggregation: the workers have quiesced; fold the
	// per-unit registries into the aggregate in deterministic unit order.
	for _, reg := range regs {
		h.Metrics.Merge(reg)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return results, nil
}
