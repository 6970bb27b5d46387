package qproc

import (
	"errors"
	"math"

	"dwr/internal/faultsim"
	"dwr/internal/metrics"
	"dwr/internal/replication"
)

// ErrUnavailable is returned (via QueryResult.Err) by a fail-fast
// engine when a partition produced no usable answer within the fault
// policy's budget. Inspect with errors.Is.
var ErrUnavailable = errors.New("qproc: partition unavailable within fault-policy budget")

// DegradeMode selects what the broker does when a partition call fails
// for good — the explicit version of what used to be the implicit
// "Degraded flag" behavior.
type DegradeMode int

const (
	// BestEffort merges the partitions that answered and flags the
	// result Degraded — the paper's "the system might still be able to
	// answer queries without using all the sub-collections".
	BestEffort DegradeMode = iota
	// FailFast refuses partial answers: the first lost partition makes
	// the query return no results and QueryResult.Err = ErrUnavailable.
	FailFast
)

// String implements fmt.Stringer.
func (m DegradeMode) String() string {
	if m == FailFast {
		return "fail-fast"
	}
	return "best-effort"
}

// FaultPolicy is the query path's robustness policy: how partition and
// site calls behave under failures and stragglers. The zero value
// (normalized) means: no deadline, no retries beyond sane detection
// timeouts, one replica, no hedging, best-effort degradation — i.e.
// today's behavior plus explicit accounting.
type FaultPolicy struct {
	// DeadlineMs is the per-query latency budget. A partition call whose
	// cumulative attempts would exceed it is abandoned (counted as a
	// timeout). 0 = no deadline.
	DeadlineMs float64
	// MaxRetries bounds re-dispatches after a failed attempt. Retries
	// walk the replica failover order from internal/replication.
	MaxRetries int
	// BackoffMs is the base retry backoff: retry i waits
	// BackoffMs * 2^(i-1) before dispatching. 0 = immediate retries.
	BackoffMs float64
	// AttemptTimeoutMs is how long the broker waits for a reply before
	// declaring a silent (crashed / partitioned-away) server dead.
	// <= 0 picks 50 ms.
	AttemptTimeoutMs float64
	// Replicas is the replication degree of every partition (>= 1).
	// Retries and hedges are sent to the other replicas; replicas hold
	// identical indexes, so any of them returns the same answer.
	Replicas int
	// HedgeQuantile, when in (0, 1), fires a hedged (backup) request to
	// the next replica as soon as an attempt has been outstanding longer
	// than this quantile of the partition's observed call latencies; the
	// earlier answer wins. Needs Replicas >= 2.
	HedgeQuantile float64
	// HedgeMinMs floors the hedge threshold, so cold histograms and
	// ultra-fast partitions do not hedge every call (<= 0 picks 5 ms).
	HedgeMinMs float64
	// Mode selects fail-fast or best-effort degradation.
	Mode DegradeMode
}

// DefaultFaultPolicy returns the policy engines start from when an
// injector is installed without an explicit policy: two retries with
// 1 ms exponential backoff across two replicas, 50 ms failure
// detection, hedging at the partition p95 (floored at 5 ms), no global
// deadline, best-effort degradation.
func DefaultFaultPolicy() FaultPolicy {
	return FaultPolicy{
		MaxRetries:       2,
		BackoffMs:        1,
		AttemptTimeoutMs: 50,
		Replicas:         2,
		HedgeQuantile:    0.95,
		HedgeMinMs:       5,
		Mode:             BestEffort,
	}
}

// normalized fills the defaulted fields.
func (p FaultPolicy) normalized() FaultPolicy {
	if p.Replicas < 1 {
		p.Replicas = 1
	}
	if p.MaxRetries < 0 {
		p.MaxRetries = 0
	}
	if p.AttemptTimeoutMs <= 0 {
		p.AttemptTimeoutMs = 50
	}
	if p.HedgeMinMs <= 0 {
		p.HedgeMinMs = 5
	}
	if p.HedgeQuantile < 0 || p.HedgeQuantile >= 1 {
		p.HedgeQuantile = 0
	}
	return p
}

// PredictedAvailability returns the probability a partition call
// succeeds within the retry budget when each attempt independently
// fails with probability perAttemptFail — the replication-arithmetic
// view (replication.Availability) of the policy's attempt budget.
func (p FaultPolicy) PredictedAvailability(perAttemptFail float64) float64 {
	return replication.Availability(1-perAttemptFail, p.normalized().MaxRetries+1)
}

// robustness is the per-engine runtime of the fault policy: the
// injector underneath, the replica failover selector, the per-partition
// latency histograms driving hedge thresholds, and the cumulative
// counters. Engines touch it only at their serial gather point (under
// the engine lock), so its evolution is deterministic for a fixed fault
// schedule at any worker count.
type robustness struct {
	policy   FaultPolicy
	inj      *faultsim.Injector
	sel      *replication.Selector
	hist     *metrics.LatencyByPart
	counters metrics.FaultCounters
	orderBuf []int
}

func newRobustness(p FaultPolicy, inj *faultsim.Injector, parts int) *robustness {
	p = p.normalized()
	return &robustness{
		policy: p,
		inj:    inj,
		sel:    replication.NewSelector(parts, p.Replicas, 0),
		hist:   metrics.NewLatencyByPart(parts, nil),
	}
}

// outcome consults the injector (success when none is installed).
func (rb *robustness) outcome(tick int64, part, replica, attempt int) faultsim.Outcome {
	if rb.inj == nil {
		return faultsim.Outcome{}
	}
	return rb.inj.Outcome(tick, part, replica, attempt)
}

// hedgeAttemptBase offsets hedge attempt IDs into their own stream so a
// hedge never replays its primary attempt's fault draw.
const hedgeAttemptBase = 1 << 16

// callResult is one partition call's simulated fate under the policy.
type callResult struct {
	ok        bool
	latencyMs float64 // dispatch-to-answer time, incl. retries/backoff/hedges
	retries   int
	hedges    int
	timedOut  bool
}

// call simulates one robust partition call: the real evaluation work
// costs serviceMs on whichever replica runs it (replicas are identical,
// so the answer is computed once by the caller); this function decides
// how many attempts, hedges, and milliseconds it took to get that
// answer back — or that it never came. Pure given the engine tick and
// the injector seed, so results are identical at any worker count.
//
// deadlineMs, when > 0, is a per-call budget from the query's own
// deadline (DocQueryOptions.DeadlineMs / QueryTopKWithin); it tightens
// the policy's DeadlineMs but never loosens it.
func (rb *robustness) call(tick int64, part int, lanMs, serviceMs, deadlineMs float64) callResult {
	p := rb.policy
	if deadlineMs > 0 && (p.DeadlineMs <= 0 || deadlineMs < p.DeadlineMs) {
		p.DeadlineMs = deadlineMs
	}
	order := rb.sel.Order(part, rb.orderBuf)
	rb.orderBuf = order

	// Hedge threshold: the partition's historical latency quantile,
	// floored; 0 disables. Computed before any attempt, from history
	// only, so concurrent-looking attempts cannot perturb it.
	var threshold float64
	if p.HedgeQuantile > 0 && p.Replicas > 1 {
		threshold = rb.hist.Quantile(part, p.HedgeQuantile)
		if threshold < p.HedgeMinMs {
			threshold = p.HedgeMinMs
		}
		if math.IsInf(threshold, 1) {
			threshold = 0
		}
	}

	var res callResult
	elapsed := 0.0
	for a := 0; a <= p.MaxRetries; a++ {
		if a > 0 {
			res.retries++
			rb.counters.Retries++
			elapsed += p.BackoffMs * float64(int(1)<<uint(a-1))
		}
		if p.DeadlineMs > 0 && elapsed >= p.DeadlineMs {
			rb.counters.Timeouts++
			res.timedOut = true
			res.latencyMs = p.DeadlineMs
			return res
		}
		rep := order[a%len(order)]
		out := rb.outcome(tick, part, rep, a)

		// When does this attempt resolve, relative to its dispatch?
		okAt := -1.0  // success arrival
		failAt := 0.0 // failure detection
		if out.Err == nil {
			okAt = lanMs + serviceMs + out.ExtraMs
		} else {
			rb.counters.FaultsSeen++
			if out.Silent {
				failAt = p.AttemptTimeoutMs
			} else {
				failAt = lanMs + out.ExtraMs
			}
		}

		// Hedge: fires if no answer (success or error reply) has arrived
		// by the threshold. A silently crashed primary therefore hedges
		// too — the broker cannot tell slow from dead.
		hedged := false
		hokAt, hfailAt := -1.0, 0.0
		hrep := rep
		respAt := okAt
		if okAt < 0 {
			respAt = failAt
		}
		if threshold > 0 && respAt > threshold {
			hedged = true
			res.hedges++
			rb.counters.Hedges++
			hrep = order[(a+1)%len(order)]
			hout := rb.outcome(tick, part, hrep, hedgeAttemptBase+a)
			if hout.Err == nil {
				hokAt = threshold + lanMs + serviceMs + hout.ExtraMs
			} else {
				rb.counters.FaultsSeen++
				if hout.Silent {
					hfailAt = threshold + p.AttemptTimeoutMs
				} else {
					hfailAt = threshold + lanMs + hout.ExtraMs
				}
			}
		}

		// Earliest success wins the attempt.
		win, winRep, viaHedge := -1.0, rep, false
		if okAt >= 0 {
			win, winRep = okAt, rep
		}
		if hokAt >= 0 && (win < 0 || hokAt < win) {
			win, winRep, viaHedge = hokAt, hrep, true
		}
		if win >= 0 {
			total := elapsed + win
			if p.DeadlineMs > 0 && total > p.DeadlineMs {
				rb.counters.Timeouts++
				res.timedOut = true
				res.latencyMs = p.DeadlineMs
				return res
			}
			if viaHedge {
				rb.counters.HedgeWins++
			}
			if winRep != order[0] {
				rb.counters.Failovers++
			}
			rb.sel.Report(part, rep, okAt >= 0)
			if hedged {
				rb.sel.Report(part, hrep, hokAt >= 0)
			}
			rb.hist.Add(part, win)
			res.ok = true
			res.latencyMs = total
			return res
		}

		// Both the attempt and its hedge failed: the broker moves on once
		// the slower failure signal lands.
		wait := failAt
		if hedged && hfailAt > wait {
			wait = hfailAt
		}
		elapsed += wait
		rb.sel.Report(part, rep, false)
		if hedged {
			rb.sel.Report(part, hrep, false)
		}
		if p.DeadlineMs > 0 && elapsed >= p.DeadlineMs {
			rb.counters.Timeouts++
			res.timedOut = true
			res.latencyMs = p.DeadlineMs
			return res
		}
	}
	// Retry budget exhausted.
	res.latencyMs = elapsed
	return res
}

// health lists, ascending, the units marked in down plus those whose
// every replica the injector fails at tick (marking them in down too).
// Safe on a nil receiver: without fault options only down counts.
func (rb *robustness) health(down []bool, tick int64) Health {
	if rb != nil && rb.inj != nil {
		for _, u := range rb.inj.DownUnits(tick, len(down), rb.policy.Replicas) {
			down[u] = true
		}
	}
	h := Health{Units: len(down)}
	for u, d := range down {
		if d {
			h.Down = append(h.Down, u)
		}
	}
	return h
}

// lost records a partition that contributed nothing.
func (rb *robustness) lost() { rb.counters.Lost++ }

// snapshot returns the cumulative counters.
func (rb *robustness) snapshot() metrics.FaultCounters { return rb.counters }
