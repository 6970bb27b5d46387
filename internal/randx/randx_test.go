package randx

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("sources with the same seed diverged at draw %d", i)
		}
	}
}

func TestZipfRankZeroMostLikely(t *testing.T) {
	rng := New(1)
	z := NewZipf(1000, 1.0)
	counts := make([]int, 1000)
	const draws = 200000
	for i := 0; i < draws; i++ {
		counts[z.Draw(rng)]++
	}
	if counts[0] <= counts[1] || counts[1] <= counts[10] {
		t.Fatalf("zipf counts not decreasing: c0=%d c1=%d c10=%d", counts[0], counts[1], counts[10])
	}
	// For s=1, p(0)/p(1) == 2. Allow generous sampling slack.
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 1.6 || ratio > 2.5 {
		t.Fatalf("p(0)/p(1) ratio = %.2f, want about 2", ratio)
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	for _, s := range []float64{0.5, 1.0, 1.5, 2.0} {
		// The rank probabilities are the cdf's increments: each positive,
		// summing to the last entry, which is 1.
		z := NewZipf(500, s)
		prev := 0.0
		for i, c := range z.cdf {
			if c <= prev {
				t.Fatalf("s=%v: probability of rank %d is %v, want > 0", s, i, c-prev)
			}
			prev = c
		}
		if prev != 1 {
			t.Errorf("s=%v: probabilities sum to %v, want 1", s, prev)
		}
		if ratio := z.cdf[0] / (z.cdf[1] - z.cdf[0]); math.Abs(ratio-math.Pow(2, s)) > 1e-9 {
			t.Errorf("s=%v: p(0)/p(1) = %v, want 2^s", s, ratio)
		}
	}
}

func TestZipfDrawInRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := New(seed)
		z := NewZipf(37, 1.1)
		for i := 0; i < 200; i++ {
			r := z.Draw(rng)
			if r < 0 || r >= 37 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestZipfGuideIsExact: the guide-table search returns what a binary
// search of the cdf returns — at 0, at every cdf entry and bucket edge
// j/n, at the float64 on either side of each, and just below 1 — and
// Draw, over 100 000 draws, repeats the binary-search draw of a twin
// source. Bucket edges and cdf entries are where a rounded int(u*n)
// could start the search on the wrong side; the last case is a cdf
// whose entry just below 5/6 rounds into the bucket above it.
func TestZipfGuideIsExact(t *testing.T) {
	exact := func(z *Zipf, label string) {
		n := len(z.cdf)
		us := []float64{0, math.Nextafter(1, 0)}
		us = append(us, z.cdf...)
		for j := 0; j <= n; j++ {
			us = append(us, float64(j)/float64(n))
		}
		for _, u := range us {
			for _, v := range []float64{math.Nextafter(u, -1), u, math.Nextafter(u, 2)} {
				if v < 0 || v >= 1 {
					continue // outside rng.Float64's range
				}
				if got, want := z.search(v), sort.SearchFloat64s(z.cdf, v); got != want {
					t.Fatalf("%s: search(%v) = %d, want %d", label, v, got, want)
				}
			}
		}
	}
	for _, n := range []int{1, 2, 3, 187, 3000, 5000} {
		for _, s := range []float64{0.8, 0.9, 1.0, 1.2} {
			z := NewZipf(n, s)
			label := fmt.Sprintf("n=%d s=%v", n, s)
			exact(z, label)
			rng, twin := New(int64(n)), New(int64(n))
			for i := 0; i < 100000; i++ {
				if got, want := z.Draw(rng), sort.SearchFloat64s(z.cdf, twin.Float64()); got != want {
					t.Fatalf("%s: draw %d = %d, want %d", label, i, got, want)
				}
			}
		}
	}
	below := math.Nextafter(5.0/6, 0) // int(below*6) == 5
	cdf := []float64{1.0 / 6, 2.0 / 6, 3.0 / 6, 4.0 / 6, below, 1}
	exact(&Zipf{cdf: cdf, guide: guideTable(cdf)}, "cdf[4] just below 5/6")
}

func TestZipfPanicsOnBadArgs(t *testing.T) {
	for _, tc := range []struct {
		n int
		s float64
	}{{0, 1}, {-1, 1}, {10, 0}, {10, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewZipf(%d, %v) did not panic", tc.n, tc.s)
				}
			}()
			NewZipf(tc.n, tc.s)
		}()
	}
}

func TestParetoMinimum(t *testing.T) {
	rng := New(7)
	for i := 0; i < 1000; i++ {
		v := Pareto(rng, 2.5, 1.3)
		if v < 2.5 {
			t.Fatalf("Pareto drew %v below minimum 2.5", v)
		}
	}
}

func TestBoundedParetoRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := New(seed)
		v := BoundedPareto(rng, 1, 1.1, 50)
		return v >= 1 && v <= 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestExpMean(t *testing.T) {
	rng := New(3)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		sum += Exp(rng, 25)
	}
	mean := sum / n
	if mean < 23 || mean > 27 {
		t.Fatalf("exponential sample mean %v, want about 25", mean)
	}
}

func TestLogNormalPositive(t *testing.T) {
	rng := New(9)
	for i := 0; i < 1000; i++ {
		if v := LogNormal(rng, 0, 1); v <= 0 {
			t.Fatalf("LogNormal drew non-positive %v", v)
		}
	}
}

func TestWeightedRespectsWeights(t *testing.T) {
	rng := New(11)
	counts := [3]int{}
	for i := 0; i < 60000; i++ {
		counts[Weighted(rng, []float64{1, 2, 3})]++
	}
	if !(counts[0] < counts[1] && counts[1] < counts[2]) {
		t.Fatalf("weighted counts not ordered: %v", counts)
	}
	// Expected proportions 1/6, 2/6, 3/6.
	if got := float64(counts[2]) / 60000; math.Abs(got-0.5) > 0.02 {
		t.Fatalf("weight-3 proportion %v, want about 0.5", got)
	}
}

func TestWeightedPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Weighted(empty) did not panic")
		}
	}()
	Weighted(New(1), nil)
}

func TestBernoulliExtremes(t *testing.T) {
	rng := New(5)
	for i := 0; i < 100; i++ {
		if Bernoulli(rng, 0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !Bernoulli(rng, 1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}
