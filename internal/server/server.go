// Package server is the serving front-end the paper's Section 5
// capacity model describes: queries from an open population of users
// arrive at a front-end whose c worker threads form a G/G/c system, and
// the sustainable arrival rate is bounded by λ < c/E[S]
// (queueing.CapacityBound). Where internal/queueing computes that bound
// analytically, this package actually serves load: it wraps any
// qproc.Engine behind a bounded worker pool with
//
//   - a token-bucket admission controller (sustained rate + burst),
//   - a bounded wait queue with deadline-aware eviction, FIFO per
//     priority class, interactive dispatched before batch, and
//   - an adaptive load shedder driven by observed latency quantiles
//     (metrics.Histogram.Quantile), so that beyond saturation the
//     front-end degrades gracefully — bounded latency for admitted
//     queries, rising shed rate — instead of collapsing under an
//     unbounded queue.
//
// That pipeline is one clock-free state machine (queue.go) under two
// drivers: Run (sim.go) steps it from a deterministic virtual-time
// event loop — the repository's one G/G/c simulator, which validates the
// bound for Figure 6 over a stub service law and for dwrbench's serve
// scenario over real engines — and Frontend (http.go) steps it on the
// wall clock for the HTTP surface cmd/dwrserve serves, so the measured
// discipline is the served one.
package server

// Class is a request priority class: Batch traffic (prefetchers,
// analytics replays) is shed before, and dispatched after, Interactive
// traffic (a user waiting at a search box).
type Class int

// Priority classes, highest priority first.
const (
	Interactive Class = iota
	Batch
	numClasses
)

// String implements fmt.Stringer.
func (c Class) String() string {
	if c == Batch {
		return "batch"
	}
	return "interactive"
}

// Request is one query presented to the front-end.
type Request struct {
	Terms []string
	Class Class
	K     int // top-k to return (<= 0 picks defaultK = 10)
}

// defaultK is the top-k a request that names none gets.
const defaultK = 10

// Arrival is one request arriving at a point in time, as produced by an
// internal/loadgen source. At is in seconds since the run start —
// virtual seconds under Run, wall-clock seconds under Frontend.
type Arrival struct {
	At   float64
	User int
	Req  Request
}

// Source feeds a workload to the serving loop. Open-loop sources
// (arrivals independent of completions) return their whole schedule
// from Init; closed-loop sources (each user waits for an answer, thinks,
// then asks again) seed one arrival per user and chain the rest through
// OnDone.
type Source interface {
	// Init returns the workload's initial arrivals.
	Init() []Arrival
	// OnDone reacts to the terminal outcome — served, shed, or timed
	// out — of a previously issued arrival at time `at`, optionally
	// issuing that user's next request (which must not be earlier than
	// `at`).
	OnDone(a Arrival, at float64) (Arrival, bool)
}

// Config sizes the serving pipeline. Zero values pick the defaults
// documented per field.
type Config struct {
	// Workers is c, the G/G/c worker pool width (<= 0 picks 150, the
	// paper's "typical configuration of an Apache server").
	Workers int
	// QueueCap bounds the wait queue, all classes together (< 0 means
	// no queue at all; 0 picks 2×Workers). A full queue sheds.
	QueueCap int
	// DeadlineMs is the per-request latency budget: requests still
	// queued past it are evicted, and the remaining budget is propagated
	// into the engine call (qproc.DeadlineQuerier). <= 0 disables.
	DeadlineMs float64
	// AdmitRate is the token bucket's sustained admission rate per
	// second (<= 0 disables admission control).
	AdmitRate float64
	// AdmitBurst is the bucket depth (<= 0 picks Workers).
	AdmitBurst float64
	// Shed configures the adaptive latency-quantile shedder.
	Shed ShedConfig
	// Seed drives the shedder's admission coin flips.
	Seed int64
}

// withDefaults resolves the documented zero-value defaults.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 150
	}
	if c.QueueCap == 0 {
		c.QueueCap = 2 * c.Workers
	}
	if c.QueueCap < 0 {
		c.QueueCap = 0
	}
	if c.AdmitBurst <= 0 {
		c.AdmitBurst = float64(c.Workers)
	}
	return c
}

// ClassReport summarizes one priority class's fate in a Report.
type ClassReport struct {
	Offered int
	Served  int
	Shed    int // all shed reasons plus deadline evictions
	// Latency quantiles of served requests, milliseconds, arrival to
	// completion.
	P50Ms, P95Ms, P99Ms, MaxMs, MeanMs float64
}

// Report is the outcome of one Run: the measured side of the G/G/c
// capacity story.
type Report struct {
	Workers int

	Offered  int // arrivals presented to the front-end
	Admitted int // passed shedding + admission control (queued or served)
	Served   int // answered successfully within budget

	// Shed and failure taxonomy, disjoint.
	ShedOverload    int // adaptive shedder (latency SLO defense)
	ShedAdmission   int // token bucket
	ShedQueueFull   int // bounded queue overflow
	EvictedDeadline int // queued past the deadline, never started
	EngineDeadline  int // started, but the engine busted the propagated budget
	EngineFailed    int // engine refused (fail-fast fault policy, all sites down)

	Degraded int // served, but with partitions missing

	MakespanSec    float64 // first arrival to last event
	OfferedQPS     float64
	GoodputQPS     float64 // Served / MakespanSec
	MeanServiceMs  float64 // E[S] actually measured on the worker pool
	Utilization    float64 // busy worker-time / (Workers × makespan)
	MaxQueueLen    int
	FinalShedLevel float64

	Class [numClasses]ClassReport
}
