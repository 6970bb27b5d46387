// Package conc provides the bounded worker-pool primitive underneath
// the parallel scatter-gather broker (internal/qproc) and concurrent
// index construction (internal/index).
//
// The design contract that keeps real parallelism compatible with the
// simulation's determinism: a task writes only state owned by its own
// index i (a per-item slot in a results slice), and the caller
// aggregates those slots serially after Do returns, in the same order
// the serial loop would have produced them. Integer counters, float
// accumulations, and RNG draws therefore happen in exactly the serial
// order, and results are byte-identical at any worker count.
package conc

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers resolves a requested fan-out width: values <= 0 mean
// GOMAXPROCS, anything else is returned as-is.
func Workers(requested int) int {
	if requested <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return requested
}

// Do runs fn(i) for every i in [0, n) on up to workers goroutines
// (workers <= 0 selects GOMAXPROCS) and returns once every call has
// finished. workers <= 1 (after resolution) runs inline on the calling
// goroutine — the serial baseline. fn must only write state owned by
// item i; cross-item aggregation belongs in the caller, after Do.
func Do(n, workers int, fn func(i int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// The caller is one of the workers: workers-1 goroutines start, and
	// the calling goroutine works beside them instead of idling in Wait.
	d := &doState{n: n, fn: fn}
	d.wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go d.run()
	}
	d.work()
	d.wg.Wait()
}

// doState is one Do call's shared state, a single allocation.
type doState struct {
	next atomic.Int64
	wg   sync.WaitGroup
	n    int
	fn   func(i int)
}

func (d *doState) run() {
	defer d.wg.Done()
	d.work()
}

// work claims items by atomic counter until none is left: cheap, and long
// items do not stall the queue behind them.
func (d *doState) work() {
	for {
		i := int(d.next.Add(1)) - 1
		if i >= d.n {
			return
		}
		d.fn(i)
	}
}
