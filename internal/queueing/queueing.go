// Package queueing implements the queueing-theoretic front-end model of
// Section 5 (Figure 6): a front-end server is a G/G/c system whose c
// servers are the worker threads (c = 150 for a typical Apache); the
// maximum sustainable query arrival rate is bounded by c divided by the
// mean per-request service time, which collapses from 15,000 req/s at a
// 10 ms service time to 1,500 req/s at 100 ms. The analytic bound is
// accompanied by an Erlang-C/Kingman waiting-time approximation and a
// heavy-tailed service law. The discrete-event check on either side of
// the bound is server.Run, the simulator of the queue the front-end
// actually serves.
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
