package metrics

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestWelfordAgainstDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 500)
	var w Welford
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
		w.Add(xs[i])
	}
	mean := 0.0
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	varc := 0.0
	for _, x := range xs {
		varc += (x - mean) * (x - mean)
	}
	varc /= float64(len(xs) - 1)
	if math.Abs(w.Mean()-mean) > 1e-9 {
		t.Fatalf("mean = %v, want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-varc) > 1e-6 {
		t.Fatalf("var = %v, want %v", w.Var(), varc)
	}
}

func TestWelfordMinMaxAndEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.n != 0 {
		t.Fatal("empty Welford not zero-valued")
	}
	w.Add(5)
	w.Add(-2)
	w.Add(9)
	if w.Min() != -2 || w.Max() != 9 {
		t.Fatalf("min/max = %v/%v, want -2/9", w.Min(), w.Max())
	}
}

func TestWelfordCV(t *testing.T) {
	var w Welford
	for i := 0; i < 10; i++ {
		w.Add(4)
	}
	if w.CV() != 0 {
		t.Fatalf("CV of constant data = %v, want 0", w.CV())
	}
}

func TestSampleQuantiles(t *testing.T) {
	var s Sample
	for i := 100; i >= 1; i-- {
		s.Add(float64(i))
	}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100},
	}
	for _, c := range cases {
		if got := s.Quantile(c.q); got != c.want {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
}

func TestSampleQuantileMonotone(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var s Sample
		for i := 0; i < 50; i++ {
			s.Add(rng.Float64() * 1000)
		}
		prev := math.Inf(-1)
		for q := 0.0; q <= 1.0; q += 0.05 {
			v := s.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSampleEmpty(t *testing.T) {
	var s Sample
	if s.Quantile(0.5) != 0 || s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty Sample should report zeros")
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for _, v := range []float64{1, 10, 11, 20, 25, 31, 1000} {
		h.Add(v)
	}
	if got := h.counts[0]; got != 2 { // 1, 10
		t.Errorf("bucket ≤10 = %d, want 2", got)
	}
	if got := h.counts[1]; got != 2 { // 11, 20
		t.Errorf("bucket ≤20 = %d, want 2", got)
	}
	if got := h.counts[2]; got != 1 { // 25
		t.Errorf("bucket ≤30 = %d, want 1", got)
	}
	if got := h.Total() - h.counts[0] - h.counts[1] - h.counts[2]; got != 2 { // 31, 1000
		t.Errorf("overflow = %d, want 2", got)
	}
	if h.Total() != 7 {
		t.Errorf("total = %d, want 7", h.Total())
	}
}

func TestHistogramPanicsOnBadBounds(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {2, 2}, {3, 1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewHistogram(%v) did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestImbalance(t *testing.T) {
	im := NewImbalance([]float64{1, 1, 1, 5})
	if im.Mean != 2 {
		t.Fatalf("mean = %v, want 2", im.Mean)
	}
	if im.Max != 5 || im.Min != 1 {
		t.Fatalf("max/min = %v/%v, want 5/1", im.Max, im.Min)
	}
	if math.Abs(im.MaxOver-2.5) > 1e-12 {
		t.Fatalf("MaxOver = %v, want 2.5", im.MaxOver)
	}
	balanced := NewImbalance([]float64{3, 3, 3})
	if balanced.MaxOver != 1 || balanced.CV != 0 {
		t.Fatalf("balanced load reported imbalance: %+v", balanced)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("demo", "name", "value")
	tb.AddRow("alpha", 1.0)
	tb.AddRow("b", 2.5)
	out := tb.String()
	for _, want := range []string{"== demo ==", "name", "value", "alpha", "2.500", "-----"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q:\n%s", want, out)
		}
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{3, "3"}, {3.25, "3.250"}, {123.456, "123.5"}, {-7, "-7"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestBar(t *testing.T) {
	if got := Bar(0.5, 10); got != "#####" {
		t.Errorf("Bar(0.5, 10) = %q", got)
	}
	if got := Bar(-1, 10); got != "" {
		t.Errorf("Bar(-1, 10) = %q, want empty", got)
	}
	if got := Bar(2, 4); got != "####" {
		t.Errorf("Bar(2, 4) = %q, want clamped full bar", got)
	}
}
