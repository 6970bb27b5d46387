// Package faultsim is the deterministic fault-injection and latency-
// simulation layer under the query path's robustness policy: it wraps
// partition processor calls with injectable behaviors — crash
// (silent, detected only by timeout), flaky (probabilistic immediate
// error), slow (straggler latency drawn from a log-normal), and
// partition-wide outage windows keyed by the engine's query tick.
//
// Determinism is the design constraint everything else bends around.
// An Outcome is a pure function of (seed, tick, unit, replica, attempt):
// the decision RNG is re-derived from a hash of those coordinates
// (internal/randx over a splitmix64-mixed seed), never drawn from a
// shared stream. Concurrent brokers at any worker count therefore see
// byte-identical fault schedules, and a fixed seed replays the exact
// same failure history run after run.
package faultsim

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"dwr/internal/randx"
)

// ErrInjected is the root of every injected failure; inspect with
// errors.Is. The concrete error says which unit failed and how.
var ErrInjected = errors.New("faultsim: injected fault")

// Spec configures the fault behavior of one unit (a partition server) —
// all its replicas alike; a Window
// takes out a single replica. The zero Spec is a perfectly healthy server.
type Spec struct {
	// Crash makes every call fail silently: no error reply, no answer.
	// The caller only learns via its attempt timeout.
	Crash bool
	// FlakyP is the probability a call returns an immediate error reply
	// (connection reset, over-capacity rejection). Each attempt draws
	// independently, so retries against the same replica can succeed.
	FlakyP float64
	// SlowP is the probability a call straggles: it still succeeds but
	// only after an extra log-normal delay.
	SlowP float64
	// SlowMeanMs locates the straggler delay distribution: the extra
	// latency is LogNormal(ln(SlowMeanMs), slowSigma) milliseconds.
	SlowMeanMs float64
}

// slowSigma is the log-normal scale of the straggler delay.
const slowSigma = 0.5

// healthy reports whether the spec never injects anything.
func (s Spec) healthy() bool {
	return !s.Crash && s.FlakyP <= 0 && s.SlowP <= 0
}

// Window is a scheduled outage: the covered calls fail silently while
// From <= tick < To. Unit -1 covers every unit, Replica -1 every
// replica — so {Unit: 3, Replica: -1} is a partition-wide outage of
// partition 3 (all its replicas), the cluster-maintenance shape.
type Window struct {
	Unit    int // -1 = every unit
	Replica int // -1 = every replica
	From    int64
	To      int64 // exclusive
}

func (w Window) covers(tick int64, unit, replica int) bool {
	if tick < w.From || tick >= w.To {
		return false
	}
	if w.Unit >= 0 && w.Unit != unit {
		return false
	}
	if w.Replica >= 0 && w.Replica != replica {
		return false
	}
	return true
}

// Outcome is the simulated fate of one processor call attempt.
type Outcome struct {
	// Err is non-nil when the call failed (wraps ErrInjected).
	Err error
	// Silent marks a failure that produced no reply: the caller pays its
	// attempt timeout to detect it. False failures are error replies that
	// arrive at normal network speed.
	Silent bool
	// ExtraMs is straggler latency added to a successful call.
	ExtraMs float64
}

// Injector decides call outcomes for a set of units. Spec changes are
// guarded and may be made between queries (e.g. an example failing a
// partition mid-run); Outcome itself is lock-light and safe for concurrent
// brokers.
type Injector struct {
	seed int64

	mu      sync.RWMutex
	def     Spec
	units   map[int]Spec
	windows []Window
}

// New creates an injector whose whole fault schedule is a deterministic
// function of seed.
func New(seed int64) *Injector {
	return &Injector{
		seed:  seed,
		units: make(map[int]Spec),
	}
}

// Default sets the spec applied to every unit without a more specific
// override. Returns the injector for chaining.
func (in *Injector) Default(s Spec) *Injector {
	in.mu.Lock()
	in.def = s
	in.mu.Unlock()
	return in
}

// Unit overrides the spec of one unit (all its replicas).
func (in *Injector) Unit(u int, s Spec) *Injector {
	in.mu.Lock()
	in.units[u] = s
	in.mu.Unlock()
	return in
}

// Window schedules an outage. Returns the injector for chaining.
func (in *Injector) Window(w Window) *Injector {
	in.mu.Lock()
	in.windows = append(in.windows, w)
	in.mu.Unlock()
	return in
}

// ClearUnit removes the override for u (the unit falls back to the
// default spec) — "the server was replaced".
func (in *Injector) ClearUnit(u int) {
	in.mu.Lock()
	delete(in.units, u)
	in.mu.Unlock()
}

// spec resolves the effective spec for a unit: its override, else the
// default. Every replica of a unit shares it; a Window narrows an outage
// to one replica.
func (in *Injector) spec(unit int) Spec {
	if s, ok := in.units[unit]; ok {
		return s
	}
	return in.def
}

// windowed reports whether an outage window covers the replica at tick.
// The caller holds in.mu.
func (in *Injector) windowed(tick int64, unit, replica int) bool {
	for _, w := range in.windows {
		if w.covers(tick, unit, replica) {
			return true
		}
	}
	return false
}

// Outcome decides the fate of attempt `attempt` of a call to the given
// replica of the given unit at query tick `tick`. The result depends
// only on the injector's configuration and (seed, tick, unit, replica,
// attempt) — never on call order or interleaving.
func (in *Injector) Outcome(tick int64, unit, replica, attempt int) Outcome {
	in.mu.RLock()
	s := in.spec(unit)
	windowed := in.windowed(tick, unit, replica)
	in.mu.RUnlock()

	if windowed {
		return Outcome{
			Err:    fmt.Errorf("faultsim: unit %d replica %d in outage window at tick %d: %w", unit, replica, tick, ErrInjected),
			Silent: true,
		}
	}
	if s.Crash {
		return Outcome{
			Err:    fmt.Errorf("faultsim: unit %d replica %d crashed: %w", unit, replica, ErrInjected),
			Silent: true,
		}
	}
	if s.healthy() {
		return Outcome{}
	}
	rng := randx.New(mix(in.seed, tick, unit, replica, attempt))
	if s.FlakyP > 0 && randx.Bernoulli(rng, s.FlakyP) {
		return Outcome{
			Err: fmt.Errorf("faultsim: unit %d replica %d flaky error: %w", unit, replica, ErrInjected),
		}
	}
	if s.SlowP > 0 && randx.Bernoulli(rng, s.SlowP) {
		mean := s.SlowMeanMs
		if mean <= 0 {
			mean = 10
		}
		return Outcome{ExtraMs: randx.LogNormal(rng, math.Log(mean), slowSigma)}
	}
	return Outcome{}
}

// DownUnits lists units in [0, units) that cannot answer at tick no
// matter which of their `replicas` replicas is tried: every replica is
// crashed, or an active window covers them all. Engines surface this as
// the health view of injected topology damage.
func (in *Injector) DownUnits(tick int64, units, replicas int) []int {
	if replicas < 1 {
		replicas = 1
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	var down []int
	for u := 0; u < units; u++ {
		dead := true
		if !in.spec(u).Crash {
			for r := 0; r < replicas && dead; r++ {
				dead = in.windowed(tick, u, r)
			}
		}
		if dead {
			down = append(down, u)
		}
	}
	sort.Ints(down)
	return down
}

// mix collapses the call coordinates into one RNG seed with two rounds
// of splitmix64 — enough diffusion that adjacent ticks, units, replicas,
// and attempts draw independent-looking streams.
func mix(seed, tick int64, unit, replica, attempt int) int64 {
	x := uint64(seed)
	x ^= splitmix64(uint64(tick) + 0x9e3779b97f4a7c15)
	x ^= splitmix64(uint64(unit)<<32 | uint64(uint32(replica)))
	x ^= splitmix64(uint64(attempt) + 0xbf58476d1ce4e5b9)
	return int64(splitmix64(x))
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
