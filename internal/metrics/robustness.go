package metrics

import "fmt"

// FaultCounters tallies fault-handling events on a query path: what the
// robustness policy saw and what it did about it. Engines accumulate
// one instance at their gather point (serially, under the engine lock),
// so the totals are deterministic for a fixed fault schedule.
type FaultCounters struct {
	// FaultsSeen counts injected failures observed across all attempts:
	// error replies, silent crashes, and outage-window drops.
	FaultsSeen int
	// Retries counts re-dispatched attempts after a failed one.
	Retries int
	// Failovers counts answers ultimately obtained from a replica other
	// than the partition's current primary.
	Failovers int
	// Hedges counts backup requests fired because the primary attempt
	// exceeded the hedge latency threshold.
	Hedges int
	// HedgeWins counts hedged requests whose answer was the one used —
	// the primary was slower or never answered.
	HedgeWins int
	// Timeouts counts partition calls abandoned because the per-query
	// deadline or the retry budget ran out mid-flight.
	Timeouts int
	// Lost counts partition calls that produced no usable answer at all:
	// every attempt failed or timed out, so the partition contributed
	// nothing to the merged result.
	Lost int
}

// Merge folds o into c.
func (c *FaultCounters) Merge(o FaultCounters) {
	c.FaultsSeen += o.FaultsSeen
	c.Retries += o.Retries
	c.Failovers += o.Failovers
	c.Hedges += o.Hedges
	c.HedgeWins += o.HedgeWins
	c.Timeouts += o.Timeouts
	c.Lost += o.Lost
}

// String renders the counters in one report line.
func (c FaultCounters) String() string {
	return fmt.Sprintf("faults=%d retries=%d failovers=%d hedges=%d hedgeWins=%d timeouts=%d lost=%d",
		c.FaultsSeen, c.Retries, c.Failovers, c.Hedges, c.HedgeWins, c.Timeouts, c.Lost)
}

// DefaultLatencyBounds are histogram bucket upper bounds (milliseconds)
// that cover the query path's latency range: sub-millisecond cache hits
// through multi-second straggler and timeout tails.
func DefaultLatencyBounds() []float64 {
	return []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000, 2000, 5000}
}
