package queueing

import (
	"math"
	"math/rand"
	"testing"

	"dwr/internal/qproc"
	"dwr/internal/randx"
	"dwr/internal/server"
)

func TestCapacityBoundFigure6(t *testing.T) {
	// The exact numbers behind Figure 6: with c=150 threads, capacity is
	// 15,000 req/s at a 10 ms service time and 1,500 req/s at 100 ms —
	// "it drops from 15 to 2 [thousand] as the average service time goes
	// from 10ms to 100ms".
	if got := CapacityBound(150, 0.010); got != 15000 {
		t.Fatalf("bound(150, 10ms) = %v, want 15000", got)
	}
	if got := CapacityBound(150, 0.100); got != 1500 {
		t.Fatalf("bound(150, 100ms) = %v, want 1500", got)
	}
	prev := math.Inf(1)
	for s := 0.01; s <= 0.1; s += 0.01 {
		b := CapacityBound(150, s)
		if b >= prev {
			t.Fatal("capacity bound not decreasing in service time")
		}
		prev = b
	}
	if !math.IsInf(CapacityBound(10, 0), 1) {
		t.Fatal("zero service time should give infinite bound")
	}
}

func TestErlangC(t *testing.T) {
	// M/M/1 sanity: P(wait) = rho.
	for _, rho := range []float64{0.1, 0.5, 0.9} {
		if got := ErlangC(1, rho); math.Abs(got-rho) > 1e-9 {
			t.Fatalf("ErlangC(1, %v) = %v, want %v", rho, got, rho)
		}
	}
	if got := ErlangC(10, 10); got != 1 {
		t.Fatalf("saturated ErlangC = %v, want 1", got)
	}
	if got := ErlangC(10, 12); got != 1 {
		t.Fatalf("oversaturated ErlangC = %v, want 1", got)
	}
	// More servers at the same load factor wait less.
	if ErlangC(2, 1.0) <= ErlangC(10, 5.0) {
		// rho = 0.5 in both; pooled capacity should reduce waiting...
		// note: ErlangC(2,1.0) is rho=0.5 with 2 servers, ErlangC(10,5)
		// rho=0.5 with 10: the latter must be smaller.
		t.Fatal("Erlang C did not decrease with server pooling")
	}
}

func TestKingmanSaturation(t *testing.T) {
	if !math.IsInf(KingmanWait(100, 1, 0.02, 1, 1), 1) {
		t.Fatal("Kingman at rho=2 should be infinite")
	}
}

func TestLogNormalServiceMean(t *testing.T) {
	rng := randx.New(5)
	gen := LogNormalService(0.05, 2)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += gen(rng)
	}
	if mean := sum / n; mean < 0.045 || mean > 0.055 {
		t.Fatalf("log-normal service mean %.4f, want 0.05", mean)
	}
}

// serviceEngine answers every query after a virtual latency drawn from
// a service law in ms, so server.Run simulates a G/G/c queue.
type serviceEngine struct {
	rng  *rand.Rand
	draw func(*rand.Rand) float64
}

func (e serviceEngine) QueryTopK([]string, int) qproc.QueryResult {
	return qproc.QueryResult{LatencyMs: e.draw(e.rng)}
}
func (e serviceEngine) QueryTopKWithin(terms []string, k int, _ float64) qproc.QueryResult {
	return e.QueryTopK(terms, k)
}
func (serviceEngine) K() int                   { return 1 }
func (serviceEngine) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (serviceEngine) Health() qproc.Health     { return qproc.Health{Units: 1} }

// openSource holds Poisson arrivals fixed up front.
type openSource []server.Arrival

func (s openSource) Init() []server.Arrival { return s }
func (openSource) OnDone(server.Arrival, float64) (server.Arrival, bool) {
	return server.Arrival{}, false
}

func TestSimulationStableBelowBound(t *testing.T) {
	const (
		c    = 50
		esMs = 20.0
		n    = 50000
	)
	bound := CapacityBound(c, esMs/1000) // 2500/s
	rng := randx.New(2)
	arr := make(openSource, n)
	at := 0.0
	for i := range arr {
		at += randx.Exp(rng, 1/(0.7*bound))
		arr[i] = server.Arrival{At: at, User: i, Req: server.Request{Terms: []string{"a"}}}
	}
	eng := serviceEngine{rng: rng, draw: LogNormalService(esMs, 2)}
	rep := server.Run(eng, server.Config{Workers: c, QueueCap: n, Seed: 2}, arr)
	if rep.Served != n {
		t.Fatalf("unbounded queue served %d of %d", rep.Served, n)
	}
	if w := rep.Class[server.Interactive].MeanMs - rep.MeanServiceMs; w > esMs {
		t.Fatalf("stable system mean wait %.2f ms exceeds a service time", w)
	}
	if rep.Utilization < 0.5 || rep.Utilization > 0.85 {
		t.Fatalf("utilization %.2f, want ≈0.7", rep.Utilization)
	}
}
