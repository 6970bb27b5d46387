package metrics

import (
	"math"
	"testing"
)

// Edge cases of the bucketed quantile estimate. These matter beyond
// reporting: the serving front-end's shedding controller
// (internal/server) and the hedging policy (internal/qproc) both make
// control decisions from Histogram.Quantile, so the empty, single-
// sample, degenerate, and overflow behaviors are load-bearing.

func TestHistogramQuantileEmpty(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 0 {
			t.Fatalf("empty histogram Quantile(%v) = %v; want 0", q, got)
		}
	}
}

func TestHistogramQuantileSingleSample(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	h.Add(1.5) // bucket with bound 2
	for _, q := range []float64{0, 0.01, 0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 2 {
			t.Fatalf("single-sample Quantile(%v) = %v; want its bucket bound 2", q, got)
		}
	}
}

func TestHistogramQuantileAllEqual(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	for i := 0; i < 1000; i++ {
		h.Add(3) // all in the bound-4 bucket
	}
	for _, q := range []float64{0.01, 0.5, 0.95, 0.99, 1} {
		if got := h.Quantile(q); got != 4 {
			t.Fatalf("all-equal Quantile(%v) = %v; want 4", q, got)
		}
	}
}

func TestHistogramQuantileOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 2})
	h.Add(0.5)
	h.Add(100) // above the last bound
	if got := h.Quantile(0.5); got != 1 {
		t.Fatalf("Quantile(0.5) = %v; want 1", got)
	}
	if got := h.Quantile(0.99); !math.IsInf(got, 1) {
		t.Fatalf("Quantile(0.99) in the overflow bucket = %v; want +Inf", got)
	}
	// All overflow: every quantile is +Inf.
	h2 := NewHistogram([]float64{1})
	h2.Add(50)
	if got := h2.Quantile(0.01); !math.IsInf(got, 1) {
		t.Fatalf("all-overflow Quantile(0.01) = %v; want +Inf", got)
	}
}

func TestHistogramQuantileConservative(t *testing.T) {
	// The estimate is the bucket upper bound: never below the true
	// quantile of the recorded values.
	h := NewHistogram([]float64{1, 2, 4, 8, 16})
	for i := 1; i <= 100; i++ {
		h.Add(float64(i) * 0.15) // 0.15 .. 15
	}
	if got := h.Quantile(0.5); got != 8 {
		// True p50 = 7.575; conservative estimate rounds up to bound 8.
		t.Fatalf("Quantile(0.5) = %v; want conservative bound 8", got)
	}
	if got := h.Quantile(0.05); got != 1 {
		t.Fatalf("Quantile(0.05) = %v; want 1", got)
	}
	if got := h.Quantile(1); got != 16 {
		t.Fatalf("Quantile(1) = %v; want 16", got)
	}
}

func TestHistogramQuantileClampsLowQ(t *testing.T) {
	// q <= 0 still needs at least one observation: the first non-empty
	// bucket answers.
	h := NewHistogram([]float64{1, 2})
	h.Add(1.5)
	if got := h.Quantile(-1); got != 2 {
		t.Fatalf("Quantile(-1) = %v; want first occupied bound 2", got)
	}
}
