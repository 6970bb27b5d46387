// Package loadgen builds deterministic workloads for the serving
// front-end (internal/server) out of internal/querylog traffic.
//
// Two generator shapes matter for capacity work and behave very
// differently around saturation:
//
//   - Open loop: arrivals come from an effectively infinite user
//     population at a fixed rate λ, independent of how the system is
//     doing — the G/G/c model's arrival process. Past λ = c/E[S] an
//     open-loop system is unstable: whatever is not shed queues without
//     bound, which is exactly the regime the front-end's admission
//     control and shedding exist for.
//
//   - Closed loop: N users each wait for their answer (or its
//     shedding), think for a while, and only then ask again. Throughput
//     self-limits to N/(E[R]+Z), so a closed-loop test can saturate the
//     pool but never builds the unbounded backlog an open-loop overload
//     does — the reason capacity claims must be validated open-loop.
//
// All randomness derives from the config seed, so a generated workload
// replays identically.
package loadgen

import (
	"math/rand"

	"dwr/internal/querylog"
	"dwr/internal/randx"
	"dwr/internal/server"
)

// OpenConfig sizes an open-loop generator.
type OpenConfig struct {
	Seed int64
	// Rate is the offered arrival rate λ in queries per second (> 0).
	Rate float64
	// N is the total number of arrivals to generate.
	N int
	// BatchFrac is the fraction of arrivals carrying the Batch priority
	// class (0 = all interactive).
	BatchFrac float64
	// K is the per-request top-k (0 defers to the server's default).
	K int
}

// openSource replays a precomputed schedule.
type openSource struct {
	arrivals []server.Arrival
}

func (s *openSource) Init() []server.Arrival { return s.arrivals }
func (s *openSource) OnDone(server.Arrival, float64) (server.Arrival, bool) {
	return server.Arrival{}, false
}

// Open generates an open-loop workload replaying lg's queries in log
// order (cyclically), so the served mix keeps the log's popularity
// skew and term statistics.
func Open(lg *querylog.Log, cfg OpenConfig) server.Source {
	rng := randx.New(cfg.Seed)
	s := &openSource{arrivals: make([]server.Arrival, 0, cfg.N)}
	t := 0.0
	for i := 0; i < cfg.N && len(lg.Queries) > 0; i++ {
		t += randx.Exp(rng, 1/cfg.Rate)
		s.arrivals = append(s.arrivals, server.Arrival{
			At:   t,
			User: i,
			Req:  makeRequest(rng, lg, i, cfg.BatchFrac, cfg.K),
		})
	}
	return s
}

// ClosedConfig sizes a closed-loop generator.
type ClosedConfig struct {
	Seed int64
	// Users is the population size N.
	Users int
	// ThinkMeanSec is the mean exponential think time Z between a
	// user's answer and their next request.
	ThinkMeanSec float64
	// N caps the total requests issued across all users.
	N int
}

// closedSource issues each user's next request only after the previous
// one terminated. Its users are interactive and take the server's
// default top-k.
type closedSource struct {
	cfg    ClosedConfig
	lg     *querylog.Log
	rng    *rand.Rand
	issued int
}

func (s *closedSource) Init() []server.Arrival {
	n := s.cfg.Users
	if n > s.cfg.N {
		n = s.cfg.N
	}
	out := make([]server.Arrival, 0, n)
	for u := 0; u < n; u++ {
		out = append(out, server.Arrival{
			At:   randx.Exp(s.rng, s.cfg.ThinkMeanSec),
			User: u,
			Req:  makeRequest(s.rng, s.lg, s.issued, 0, 0),
		})
		s.issued++
	}
	return out
}

func (s *closedSource) OnDone(a server.Arrival, at float64) (server.Arrival, bool) {
	if s.issued >= s.cfg.N {
		return server.Arrival{}, false
	}
	next := server.Arrival{
		At:   at + randx.Exp(s.rng, s.cfg.ThinkMeanSec),
		User: a.User,
		Req:  makeRequest(s.rng, s.lg, s.issued, 0, 0),
	}
	s.issued++
	return next, true
}

// Closed generates a closed-loop workload of cfg.Users users replaying
// lg's queries. The serving loop calls OnDone in deterministic event
// order, so the draw sequence — and therefore the workload — is
// reproducible for a fixed seed.
func Closed(lg *querylog.Log, cfg ClosedConfig) server.Source {
	if cfg.ThinkMeanSec <= 0 {
		cfg.ThinkMeanSec = 0.01
	}
	return &closedSource{cfg: cfg, lg: lg, rng: randx.New(cfg.Seed)}
}

// makeRequest builds the i-th request from the log's query stream.
func makeRequest(rng *rand.Rand, lg *querylog.Log, i int, batchFrac float64, k int) server.Request {
	q := lg.Queries[i%len(lg.Queries)]
	cl := server.Interactive
	if randx.Bernoulli(rng, batchFrac) {
		cl = server.Batch
	}
	return server.Request{Terms: q.Terms, Class: cl, K: k}
}
