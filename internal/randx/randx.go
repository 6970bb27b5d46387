// Package randx provides deterministic random samplers used by the
// synthetic Web, query-log, and failure models.
//
// Every function takes an explicit *rand.Rand so that experiments are
// reproducible: callers create sources with fixed seeds and thread them
// through the whole system. Nothing in this package reads global state.
package randx

import (
	"math"
	"math/rand"
)

// New returns a rand.Rand seeded with seed. It is a convenience wrapper so
// callers do not have to import math/rand just to build a source.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

// Zipf draws ranks in [0, n) with probability proportional to
// 1/(rank+1)^s. Unlike math/rand's Zipf it supports any exponent s > 0
// (including the classic s = 1 observed for query and term frequencies)
// and small n, at the cost of precomputing the distribution.
type Zipf struct {
	cdf []float64 // cumulative probabilities, cdf[n-1] == 1
	// guide[j] is the first rank whose cdf reaches j/n, for j in [0, n]:
	// n equal buckets over n ranks, so a draw that starts at its
	// bucket's entry is a step or so from its rank on average.
	guide []int
}

// NewZipf builds a Zipf sampler over n ranks with exponent s.
// It panics if n <= 0 or s <= 0, which indicate a programming error.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("randx: NewZipf with n <= 0")
	}
	if s <= 0 {
		panic("randx: NewZipf with s <= 0")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += math.Pow(float64(i+1), -s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against floating-point undershoot
	return &Zipf{cdf: cdf, guide: guideTable(cdf)}
}

// guideTable returns the guide of a cdf whose last entry is 1.
func guideTable(cdf []float64) []int {
	n := len(cdf)
	guide := make([]int, n+1)
	i := 0
	for j := range guide {
		// j/n never exceeds cdf[n-1] == 1, so i stays a rank.
		t := float64(j) / float64(n)
		for cdf[i] < t {
			i++
		}
		guide[j] = i
	}
	return guide
}

// Draw returns a rank in [0, n).
func (z *Zipf) Draw(rng *rand.Rand) int {
	return z.search(rng.Float64())
}

// search returns sort.SearchFloat64s(z.cdf, u), the first rank whose
// cdf reaches u, for u in [0, 1). It starts at u's guide bucket and
// steps down, then up: int(u*n) may round across a bucket edge, so the
// start can lie on either side of the answer.
func (z *Zipf) search(u float64) int {
	i := z.guide[int(u*float64(len(z.cdf)))]
	for i > 0 && z.cdf[i-1] >= u {
		i--
	}
	for z.cdf[i] < u {
		i++
	}
	return i
}

// Pareto draws a value from a Pareto (power-law) distribution with the
// given minimum xm and shape alpha. Web page in-degrees and posting-list
// lengths follow such heavy-tailed laws.
func Pareto(rng *rand.Rand, xm, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// BoundedPareto draws a Pareto(xm, alpha) value truncated to at most max.
func BoundedPareto(rng *rand.Rand, xm, alpha, max float64) float64 {
	v := Pareto(rng, xm, alpha)
	if v > max {
		return max
	}
	return v
}

// Exp draws an exponential value with the given mean. It is used for
// inter-arrival times, failure inter-occurrence times, and service times.
func Exp(rng *rand.Rand, mean float64) float64 {
	return rng.ExpFloat64() * mean
}

// LogNormal draws a log-normal value with the given location mu and scale
// sigma (parameters of the underlying normal). Repair durations and Web
// server response times are well modelled as log-normal.
func LogNormal(rng *rand.Rand, mu, sigma float64) float64 {
	return math.Exp(rng.NormFloat64()*sigma + mu)
}

// Weighted selects an index in [0, len(weights)) with probability
// proportional to weights[i]. It panics if weights is empty or sums to a
// non-positive value.
func Weighted(rng *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		total += w
	}
	if len(weights) == 0 || total <= 0 {
		panic("randx: Weighted with empty or non-positive weights")
	}
	u := rng.Float64() * total
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// Bernoulli returns true with probability p.
func Bernoulli(rng *rand.Rand, p float64) bool {
	return rng.Float64() < p
}
