// Package queueing is the analytical model the paper's conclusion calls
// for, one model in the manner of Badue et al.'s capacity planning for
// search engines. Section 1's plan derives cluster size, replication
// degree, machine count, cost and a response-time estimate from data
// volume and query workload (Derive, Project). Section 5's front-end
// model (Figure 6) treats a front-end server as a G/G/c
// system whose c servers are the worker threads (c = 150 for a typical
// Apache): the maximum sustainable query arrival rate is bounded by c
// divided by the mean per-request service time, which collapses from
// 15,000 req/s at a 10 ms service time to 1,500 req/s at 100 ms. The
// analytic bound is accompanied by an Erlang-C/Kingman waiting-time
// approximation and a heavy-tailed service law. The discrete-event check
// on either side of the bound is server.Run, the simulator of the queue
// the front-end actually serves.
package queueing

import (
	"math"
	"math/rand"

	"dwr/internal/randx"
)

// CapacityBound returns the maximum arrival rate (requests per second) a
// G/G/c system with c servers and the given mean service time (seconds)
// can sustain: λ < c / E[S]. Above it the queue grows without bound.
func CapacityBound(c int, meanServiceSec float64) float64 {
	if meanServiceSec <= 0 {
		return math.Inf(1)
	}
	return float64(c) / meanServiceSec
}

// ErlangC returns the probability an arriving job waits in an M/M/c
// queue with offered load a = λ·E[S] and c servers. It returns 1 when
// the system is at or beyond saturation.
func ErlangC(c int, a float64) float64 {
	if a >= float64(c) {
		return 1
	}
	// Compute via the stable iterative form of the Erlang B recursion,
	// then convert to Erlang C.
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	rho := a / float64(c)
	return b / (1 - rho*(1-b))
}

// KingmanWait approximates the mean queueing delay (seconds, excluding
// service) of a G/G/c queue with arrival rate lambda, mean service time
// es, and squared coefficients of variation ca2 (inter-arrival) and cs2
// (service): the Allen–Cunneen formula. It returns +Inf at or beyond
// saturation.
func KingmanWait(lambda float64, c int, es, ca2, cs2 float64) float64 {
	rho := lambda * es / float64(c)
	if rho >= 1 {
		return math.Inf(1)
	}
	a := lambda * es
	pWait := ErlangC(c, a)
	wqMMc := pWait * es / (float64(c) * (1 - rho))
	return wqMMc * (ca2 + cs2) / 2
}

// LogNormalService returns a log-normal service generator with the given
// mean (in any time unit; draws come out in the same unit) and squared
// coefficient of variation — service times in search front-ends are
// heavier-tailed than exponential.
func LogNormalService(mean, cs2 float64) func(*rand.Rand) float64 {
	sigma2 := math.Log(1 + cs2)
	mu := math.Log(mean) - sigma2/2
	sigma := math.Sqrt(sigma2)
	return func(rng *rand.Rand) float64 {
		return randx.LogNormal(rng, mu, sigma)
	}
}

// Params are the inputs of Section 1's plan. DefaultParams reproduces
// the numbers worked there.
type Params struct {
	Pages            float64 // indexed pages
	TextBytesPerPage float64 // average text per page
	IndexRatio       float64 // index size as a fraction of text size
	RAMBytesPerNode  float64 // index RAM per machine
	ClusterQPS       float64 // sustained queries/s one cluster answers
	QueriesPerDay    float64
	PeakFactor       float64 // peak-to-average query rate ratio
	CostPerNodeUSD   float64
	// Front-end response-time model (Figure 6 parameters).
	FrontEndThreads int
	ServiceTimeSec  float64
	ServiceCV2      float64
}

// DefaultParams returns the paper's Section 1 scenario: 20 billion
// pages, 100 TB of text, a 25 TB index, ~8.5 GB of index RAM per
// machine, clusters that answer 1,000 queries/s, 173 million queries a
// day peaking around 10,000/s.
func DefaultParams() Params {
	return Params{
		Pages:            20e9,
		TextBytesPerPage: 5 * 1000, // 100 TB of text
		IndexRatio:       0.25,     // 25 TB index
		RAMBytesPerNode:  8.5e9,
		ClusterQPS:       1000,
		QueriesPerDay:    173e6,
		PeakFactor:       5, // ~2,000/s average → ~10,000/s peak
		CostPerNodeUSD:   3500,
		FrontEndThreads:  150,
		ServiceTimeSec:   0.05,
		ServiceCV2:       1,
	}
}

// Plan is the derived deployment.
type Plan struct {
	TextBytes        float64
	IndexBytes       float64
	NodesPerCluster  int
	PeakQPS          float64
	AvgQPS           float64
	Replicas         int
	TotalNodes       int
	CostUSD          float64
	FrontEndCapacity float64 // queries/s one front-end sustains (bound)
	MeanResponseSec  float64 // front-end response estimate at 70% load
}

// Derive computes the deployment plan from the parameters.
func Derive(p Params) Plan {
	var pl Plan
	pl.TextBytes = p.Pages * p.TextBytesPerPage
	pl.IndexBytes = pl.TextBytes * p.IndexRatio
	if p.RAMBytesPerNode > 0 {
		pl.NodesPerCluster = int(math.Ceil(pl.IndexBytes / p.RAMBytesPerNode))
	}
	pl.AvgQPS = p.QueriesPerDay / 86400
	pl.PeakQPS = pl.AvgQPS * p.PeakFactor
	if p.ClusterQPS > 0 {
		pl.Replicas = int(math.Ceil(pl.PeakQPS / p.ClusterQPS))
	}
	pl.TotalNodes = pl.NodesPerCluster * pl.Replicas
	pl.CostUSD = float64(pl.TotalNodes) * p.CostPerNodeUSD
	pl.FrontEndCapacity = CapacityBound(p.FrontEndThreads, p.ServiceTimeSec)
	wait := KingmanWait(0.7*pl.FrontEndCapacity, p.FrontEndThreads, p.ServiceTimeSec, 1, p.ServiceCV2)
	pl.MeanResponseSec = wait + p.ServiceTimeSec
	return pl
}

// Project scales the page count and query volume by the given growth
// factors (e.g. the paper's 2010 projection) and re-derives the plan.
func Project(p Params, pageGrowth, queryGrowth float64) Plan {
	p.Pages *= pageGrowth
	p.QueriesPerDay *= queryGrowth
	return Derive(p)
}
