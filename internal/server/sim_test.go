package server_test

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/loadgen"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/queueing"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/server"
	"dwr/internal/simweb"
)

// benchEngine builds a small real DocEngine plus a query log matching
// its corpus, the integration fixture for serving tests.
func benchEngine(t *testing.T) (*qproc.DocEngine, *querylog.Log) {
	t.Helper()
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 60
	wcfg.MaxPages = 40
	wcfg.VocabSize = 1500
	web := simweb.New(wcfg)

	docs := core.WebDocs(web)
	eng, err := qproc.NewDocEngine(index.DefaultOptions(), docs,
		partition.RoundRobinDocs(index.DocIDs(docs), 4))
	if err != nil {
		t.Fatal(err)
	}

	lcfg := querylog.DefaultConfig()
	lcfg.Distinct = 300
	lcfg.Total = 2000
	return eng, querylog.Generate(web, lcfg)
}

// stubEngine answers every query with a seeded virtual latency drawn
// from a service law (ms), so sim tests control E[S] exactly without
// index cost. Calls happen in deterministic event order, so the draw
// sequence — and the whole run — replays for a fixed seed.
type stubEngine struct {
	rng     *rand.Rand
	draw    func(*rand.Rand) float64
	queries int
}

func newStubEngine(seed int64, draw func(*rand.Rand) float64) *stubEngine {
	return &stubEngine{rng: randx.New(seed), draw: draw}
}

// Service laws in ms for stubEngine; the lognormal one is
// queueing.LogNormalService itself.
func expMs(meanMs float64) func(*rand.Rand) float64 {
	return func(rng *rand.Rand) float64 { return randx.Exp(rng, meanMs) }
}

func constMs(ms float64) func(*rand.Rand) float64 { return func(*rand.Rand) float64 { return ms } }

func (e *stubEngine) QueryTopK(terms []string, k int) qproc.QueryResult {
	e.queries++
	return qproc.QueryResult{
		LatencyMs: e.draw(e.rng),
		Results:   []rank.Result{{Doc: len(terms), Score: 1}},
	}
}

func (e *stubEngine) QueryTopKWithin(terms []string, k int, deadlineMs float64) qproc.QueryResult {
	qr := e.QueryTopK(terms, k)
	if deadlineMs > 0 && qr.LatencyMs > deadlineMs {
		qr.Err = qproc.ErrDeadlineExceeded
		qr.Results = nil
		qr.LatencyMs = deadlineMs
	}
	return qr
}

func (e *stubEngine) K() int                   { return 1 }
func (e *stubEngine) Stats() qproc.EngineStats { return qproc.EngineStats{Queries: e.queries} }
func (e *stubEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

// openStub is a minimal open-loop source: n Poisson arrivals at rate
// qps, all interactive except batchFrac.
func openStub(seed int64, qps float64, n int, batchFrac float64) server.Source {
	rng := randx.New(seed)
	arr := make([]server.Arrival, n)
	t := 0.0
	for i := range arr {
		t += randx.Exp(rng, 1/qps)
		cl := server.Interactive
		if randx.Bernoulli(rng, batchFrac) {
			cl = server.Batch
		}
		arr[i] = server.Arrival{At: t, User: i, Req: server.Request{
			Terms: []string{"a"}, Class: cl}}
	}
	return sliceSource(arr)
}

type sliceSource []server.Arrival

func (s sliceSource) Init() []server.Arrival { return s }
func (sliceSource) OnDone(server.Arrival, float64) (server.Arrival, bool) {
	return server.Arrival{}, false
}

const (
	stubMeanMs = 2.0
	stubC      = 20
)

func stubBound() float64 { return queueing.CapacityBound(stubC, stubMeanMs/1000) }

// TestRunBelowBoundStable: at 70% of the G/G/c bound, everything is
// served, nothing shed, latency stays near pure service time.
func TestRunBelowBoundStable(t *testing.T) {
	eng := newStubEngine(1, queueing.LogNormalService(stubMeanMs, 0.28))
	rep := server.Run(eng, server.Config{Workers: stubC, Seed: 2},
		openStub(3, 0.7*stubBound(), 6000, 0))
	if rep.Served != rep.Offered {
		t.Fatalf("below bound: served %d of %d", rep.Served, rep.Offered)
	}
	if rep.ShedOverload+rep.ShedAdmission+rep.ShedQueueFull != 0 {
		t.Fatalf("below bound: shed %+v", rep)
	}
	it := rep.Class[server.Interactive]
	if it.P99Ms > 10*stubMeanMs {
		t.Fatalf("below bound: p99 %.2f ms for E[S]=%v ms", it.P99Ms, stubMeanMs)
	}
	if rep.Utilization < 0.5 || rep.Utilization > 0.85 {
		t.Fatalf("utilization %.3f at 70%% load", rep.Utilization)
	}
	if d := rep.MeanServiceMs/stubMeanMs - 1; d > 0.1 || d < -0.1 {
		t.Fatalf("measured E[S] %.3f ms; want ≈%v", rep.MeanServiceMs, stubMeanMs)
	}
	if w := meanWaitMs(rep); w > stubMeanMs {
		t.Fatalf("below bound: mean wait %.3f ms exceeds a service time", w)
	}
}

// meanWaitMs is the mean queueing delay of an all-interactive run that
// shed nothing: served latency less service time.
func meanWaitMs(rep server.Report) float64 {
	return rep.Class[server.Interactive].MeanMs - rep.MeanServiceMs
}

// TestRunMatchesKingmanMMc: on M/M/c arrivals and service (ca² = cs² =
// 1) Kingman's approximation is the exact M/M/c mean wait, so an
// unbounded FIFO run must land on it.
func TestRunMatchesKingmanMMc(t *testing.T) {
	const (
		c      = 4
		lambda = 30.0
		esMs   = 100.0 // rho = 0.75
		n      = 200000
	)
	pred := queueing.KingmanWait(lambda, c, esMs/1000, 1, 1) * 1000
	rep := server.Run(newStubEngine(1, expMs(esMs)),
		server.Config{Workers: c, QueueCap: n, Seed: 2}, openStub(3, lambda, n, 0))
	if rep.Served != n {
		t.Fatalf("unbounded queue served %d of %d", rep.Served, n)
	}
	if w := meanWaitMs(rep); w < pred*0.9 || w > pred*1.1 {
		t.Fatalf("simulated wait %.2f ms vs Kingman %.2f ms (>10%% off)", w, pred)
	}
}

// TestRunSingleServerFIFO: D/D/1, one arrival a second. Under capacity
// nobody waits; at 1.5 s service request i waits exactly i/2 s, and the
// queue holds 33 when the last one arrives.
func TestRunSingleServerFIFO(t *testing.T) {
	arr := make(sliceSource, 100)
	for i := range arr {
		arr[i] = server.Arrival{At: float64(i), User: i, Req: server.Request{Terms: []string{"a"}}}
	}
	cfg := server.Config{Workers: 1, QueueCap: len(arr)}

	rep := server.Run(newStubEngine(4, constMs(400)), cfg, arr)
	if w := meanWaitMs(rep); math.Abs(w) > 1e-9 || rep.MaxQueueLen != 0 {
		t.Fatalf("D/D/1 under capacity: mean wait %g ms, max queue %d", w, rep.MaxQueueLen)
	}
	rep = server.Run(newStubEngine(4, constMs(1500)), cfg, arr)
	if w := meanWaitMs(rep); w != 24750 || rep.MaxQueueLen != 33 {
		t.Fatalf("D/D/1 over capacity: mean wait %v ms (want 24750), max queue %d (want 33)",
			w, rep.MaxQueueLen)
	}
}

// TestRunUnstableAboveBound: with an unbounded FIFO, crossing the bound
// turns a short queue into a backlog that grows for the whole run.
func TestRunUnstableAboveBound(t *testing.T) {
	const (
		c    = 50
		esMs = 20.0
		n    = 30000
	)
	bound := queueing.CapacityBound(c, esMs/1000)
	run := func(seed int64, load float64) server.Report {
		return server.Run(newStubEngine(seed, expMs(esMs)),
			server.Config{Workers: c, QueueCap: n, Seed: seed}, openStub(seed+1, load*bound, n, 0))
	}
	stable, unstable := run(5, 0.7), run(7, 1.3)
	if meanWaitMs(unstable) < 10*meanWaitMs(stable) {
		t.Fatalf("above-bound wait %.3f ms not clearly worse than below-bound %.3f ms",
			meanWaitMs(unstable), meanWaitMs(stable))
	}
	if unstable.MaxQueueLen < 10*stable.MaxQueueLen {
		t.Fatalf("above-bound queue %d not clearly deeper than below-bound %d",
			unstable.MaxQueueLen, stable.MaxQueueLen)
	}
}

// TestRunOverloadDegradesGracefully: at 2x the bound with admission
// control and shedding on, goodput holds near the bound, the excess is
// shed, and admitted-query latency stays bounded — the paper's
// graceful-degradation story instead of queue collapse.
func TestRunOverloadDegradesGracefully(t *testing.T) {
	eng := newStubEngine(4, queueing.LogNormalService(stubMeanMs, 0.28))
	bound := stubBound()
	cfg := server.Config{
		Workers:    stubC,
		QueueCap:   2 * stubC,
		AdmitRate:  1.05 * bound,
		DeadlineMs: 50 * stubMeanMs,
		Shed:       server.ShedConfig{TargetP99Ms: 20 * stubMeanMs, Window: 200},
		Seed:       5,
	}
	rep := server.Run(eng, cfg, openStub(6, 2*bound, 20000, 0))

	shed := rep.ShedOverload + rep.ShedAdmission + rep.ShedQueueFull + rep.EvictedDeadline
	if shed < rep.Offered/4 {
		t.Fatalf("2x overload shed only %d of %d", shed, rep.Offered)
	}
	if rep.GoodputQPS < 0.75*bound {
		t.Fatalf("goodput %.0f qps collapsed under overload (bound %.0f)", rep.GoodputQPS, bound)
	}
	it := rep.Class[server.Interactive]
	if it.P99Ms > cfg.DeadlineMs {
		t.Fatalf("admitted p99 %.1f ms exceeds the %v ms deadline", it.P99Ms, cfg.DeadlineMs)
	}
	if rep.MaxQueueLen > cfg.QueueCap {
		t.Fatalf("queue grew to %d past its cap %d", rep.MaxQueueLen, cfg.QueueCap)
	}
}

// TestRunDeterministic: identical seeds replay to a deep-equal Report.
func TestRunDeterministic(t *testing.T) {
	run := func() server.Report {
		eng := newStubEngine(7, queueing.LogNormalService(stubMeanMs, 0.9))
		return server.Run(eng, server.Config{
			Workers:   stubC,
			AdmitRate: stubBound(),
			Shed:      server.ShedConfig{TargetP99Ms: 10 * stubMeanMs},
			Seed:      8,
		}, openStub(9, 1.5*stubBound(), 5000, 0.3))
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seeds, different reports:\n%+v\nvs\n%+v", a, b)
	}
}

// TestRunShedsBatchFirst: under overload with both classes offered, the
// batch class is shed at a higher rate and interactive keeps better
// latency.
func TestRunShedsBatchFirst(t *testing.T) {
	eng := newStubEngine(10, queueing.LogNormalService(stubMeanMs, 0.28))
	// The queue is deep enough that completion latency blows through the
	// SLO — the adaptive shedder, not queue overflow, must do the work.
	rep := server.Run(eng, server.Config{
		Workers:  stubC,
		QueueCap: 50 * stubC,
		Shed:     server.ShedConfig{TargetP99Ms: 10 * stubMeanMs, Window: 100},
		Seed:     11,
	}, openStub(12, 3*stubBound(), 20000, 0.5))

	it, ba := rep.Class[server.Interactive], rep.Class[server.Batch]
	if it.Offered == 0 || ba.Offered == 0 {
		t.Fatalf("classes not both offered: %+v %+v", it, ba)
	}
	shedRate := func(c server.ClassReport) float64 { return float64(c.Shed) / float64(c.Offered) }
	if shedRate(ba) <= shedRate(it) {
		t.Fatalf("batch shed rate %.3f not above interactive %.3f",
			shedRate(ba), shedRate(it))
	}
	if rep.FinalShedLevel == 0 {
		t.Fatal("3x overload never raised the shed level")
	}
}

// TestRunClosedLoopSelfLimits: a closed-loop population larger than the
// pool saturates it but cannot build unbounded overload — every request
// is eventually served without shedding when no limits are set.
func TestRunClosedLoopSelfLimits(t *testing.T) {
	eng := newStubEngine(13, queueing.LogNormalService(stubMeanMs, 0.28))
	src := closedStub(14, 3*stubC, 4000)
	rep := server.Run(eng, server.Config{Workers: stubC, QueueCap: 10 * stubC, Seed: 15}, src)
	if rep.Offered != 4000 {
		t.Fatalf("closed loop issued %d of 4000", rep.Offered)
	}
	if rep.Served != rep.Offered {
		t.Fatalf("closed loop: served %d of %d", rep.Served, rep.Offered)
	}
	if rep.Utilization < 0.6 {
		t.Fatalf("population 3x the pool left utilization at %.3f", rep.Utilization)
	}
}

// closedStub is a minimal closed-loop source with near-zero think time.
type closedStubSrc struct {
	rng    *rand.Rand
	users  int
	n      int
	issued int
}

func closedStub(seed int64, users, n int) server.Source {
	return &closedStubSrc{rng: randx.New(seed), users: users, n: n}
}

func (s *closedStubSrc) req() server.Request {
	return server.Request{Terms: []string{"a"}}
}

func (s *closedStubSrc) Init() []server.Arrival {
	n := s.users
	if n > s.n {
		n = s.n
	}
	out := make([]server.Arrival, n)
	for u := range out {
		out[u] = server.Arrival{At: randx.Exp(s.rng, 1e-4), User: u, Req: s.req()}
		s.issued++
	}
	return out
}

func (s *closedStubSrc) OnDone(a server.Arrival, at float64) (server.Arrival, bool) {
	if s.issued >= s.n {
		return server.Arrival{}, false
	}
	s.issued++
	return server.Arrival{At: at + randx.Exp(s.rng, 1e-4), User: a.User, Req: s.req()}, true
}

// noDeadlineEngine ignores the budget it is handed, so the front-end
// must enforce budgets alone (queue eviction, late answers).
type noDeadlineEngine struct{ e *stubEngine }

func (n noDeadlineEngine) QueryTopK(terms []string, k int) qproc.QueryResult {
	return n.e.QueryTopK(terms, k)
}
func (n noDeadlineEngine) QueryTopKWithin(terms []string, k int, _ float64) qproc.QueryResult {
	return n.e.QueryTopK(terms, k)
}
func (n noDeadlineEngine) K() int                   { return n.e.K() }
func (n noDeadlineEngine) Stats() qproc.EngineStats { return n.e.Stats() }
func (n noDeadlineEngine) Health() qproc.Health     { return n.e.Health() }

// TestRunDeadlineEnforcement: one slow worker, 10x overload, tight
// deadline. A deadline-blind engine forces queue-side eviction, and the
// queue books its late answers as timeouts; a deadline-aware engine
// converts the backlog into engine-side deadline failures. Either way
// every served latency stays inside the budget.
func TestRunDeadlineEnforcement(t *testing.T) {
	cfg := server.Config{Workers: 1, QueueCap: 1000, DeadlineMs: 150, Seed: 17}

	t.Run("engine-blind", func(t *testing.T) {
		rep := server.Run(noDeadlineEngine{newStubEngine(16, queueing.LogNormalService(100, 0.04))}, cfg,
			openStub(18, 100, 500, 0)) // 100 qps at ~10/s capacity
		if rep.EvictedDeadline == 0 {
			t.Fatalf("tight deadline evicted nothing: %+v", rep)
		}
		if it := rep.Class[server.Interactive]; it.MaxMs > cfg.DeadlineMs+1e-9 {
			t.Fatalf("served request took %.1f ms past a %v ms deadline", it.MaxMs, cfg.DeadlineMs)
		}
		if rep.Served+rep.EvictedDeadline+rep.EngineDeadline != rep.Offered {
			t.Fatalf("taxonomy does not add up: %+v", rep)
		}
	})

	t.Run("engine-aware", func(t *testing.T) {
		rep := server.Run(newStubEngine(16, queueing.LogNormalService(100, 0.04)), cfg, openStub(18, 100, 500, 0))
		if rep.EngineDeadline == 0 {
			t.Fatalf("deadline-aware engine busted no budget: %+v", rep)
		}
		it := rep.Class[server.Interactive]
		if it.MaxMs > cfg.DeadlineMs+1e-9 {
			t.Fatalf("served request took %.1f ms past a %v ms deadline", it.MaxMs, cfg.DeadlineMs)
		}
		if rep.Served+rep.EvictedDeadline+rep.EngineDeadline != rep.Offered {
			t.Fatalf("taxonomy does not add up: %+v", rep)
		}
	})
}

// TestRunAgainstRealEngineWithLoadgen wires the full stack: querylog
// traffic through loadgen into Run over a real DocEngine, twice, and
// requires identical reports — end-to-end determinism of the tentpole.
func TestRunAgainstRealEngineWithLoadgen(t *testing.T) {
	run := func() server.Report {
		eng, lg := benchEngine(t)
		src := loadgen.Open(lg, loadgen.OpenConfig{
			Seed: 19, Rate: 2000, N: 1500, BatchFrac: 0.2,
		})
		return server.Run(eng, server.Config{
			Workers:    4,
			DeadlineMs: 50,
			Shed:       server.ShedConfig{TargetP99Ms: 25, Window: 100},
			Seed:       20,
		}, src)
	}
	a := run()
	if a.Served == 0 {
		t.Fatalf("real engine served nothing: %+v", a)
	}
	if a.Served+a.ShedOverload+a.ShedAdmission+a.ShedQueueFull+
		a.EvictedDeadline+a.EngineDeadline+a.EngineFailed != a.Offered {
		t.Fatalf("outcome taxonomy does not partition offered: %+v", a)
	}
	if b := run(); !reflect.DeepEqual(a, b) {
		t.Fatal("real-engine run not deterministic across rebuilds")
	}
}
