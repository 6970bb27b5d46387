package cluster

import (
	"testing"
	"testing/quick"

	"dwr/internal/randx"
)

func TestNetworkLatencyScales(t *testing.T) {
	n := NewNetwork(1, 3)
	var lan, wan1, wan2 float64
	const reps = 500
	for i := 0; i < reps; i++ {
		lan += n.Latency(0, 0)
		wan1 += n.Latency(0, 1)
		wan2 += n.Latency(0, 2)
	}
	lan, wan1, wan2 = lan/reps, wan1/reps, wan2/reps
	if lan >= wan1 || wan1 >= wan2 {
		t.Fatalf("latency ordering broken: lan=%.2f wan1=%.2f wan2=%.2f", lan, wan1, wan2)
	}
	if lan > 1 {
		t.Fatalf("LAN latency %.2f ms, want sub-millisecond", lan)
	}
	if wan1 < 10 {
		t.Fatalf("WAN latency %.2f ms, want tens of ms", wan1)
	}
}

func TestGenOutagesWithinHorizon(t *testing.T) {
	f := func(seed int64) bool {
		rng := randx.New(seed)
		outages := GenOutages(rng, DefaultFailureModel(), 1000)
		prevEnd := 0.0
		for _, o := range outages {
			if o.Start < prevEnd || o.End <= o.Start || o.End > 1000 {
				return false
			}
			prevEnd = o.End
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAvailability(t *testing.T) {
	outages := []Outage{{Start: 10, End: 20}, {Start: 50, End: 55}}
	if got := Availability(outages, 0, 100); got != 0.85 {
		t.Fatalf("availability = %v, want 0.85", got)
	}
	if got := Availability(outages, 30, 40); got != 1 {
		t.Fatalf("availability of clean window = %v", got)
	}
	if got := Availability(outages, 10, 20); got != 0 {
		t.Fatalf("availability inside outage = %v", got)
	}
	if got := Availability(nil, 0, 100); got != 1 {
		t.Fatalf("no outages availability = %v", got)
	}
	if got := Availability(outages, 50, 50); got != 1 {
		t.Fatalf("degenerate window = %v", got)
	}
}

func TestUpAt(t *testing.T) {
	outages := []Outage{{Start: 10, End: 20}, {Start: 50, End: 55}}
	cases := []struct {
		t    float64
		want bool
	}{{5, true}, {15, false}, {25, true}, {52, false}, {60, true}}
	for _, c := range cases {
		if got := UpAt(outages, c.t); got != c.want {
			t.Errorf("UpAt(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestFigure5Shape(t *testing.T) {
	// 16 sites, 8 months, BIRN-like failure model: the first bar
	// (availability < 100%) should cover most of the 16 sites, and the
	// bars must be monotonically decreasing in the threshold.
	sites := NewSites(42, 16, 4, DefaultFailureModel(), 8*30*24)
	monthly := MonthlyAvailability(sites, 8)
	thresholds := []float64{1.0, 0.999, 0.995, 0.99, 0.98, 0.95}
	bars := UnavailabilityHistogram(monthly, thresholds)
	if bars[0] < 6 || bars[0] > 16 {
		t.Fatalf("first bar (availability<100%%) = %.1f sites, want most of 16", bars[0])
	}
	for i := 1; i < len(bars); i++ {
		if bars[i] > bars[i-1] {
			t.Fatalf("bars not decreasing: %v", bars)
		}
	}
	if bars[len(bars)-1] >= bars[0] {
		t.Fatalf("histogram flat: %v", bars)
	}
}

func TestMonthlyAvailabilityDimensions(t *testing.T) {
	sites := NewSites(1, 5, 2, DefaultFailureModel(), 3*30*24)
	monthly := MonthlyAvailability(sites, 3)
	if len(monthly) != 3 || len(monthly[0]) != 5 {
		t.Fatalf("dimensions %dx%d, want 3x5", len(monthly), len(monthly[0]))
	}
	for _, row := range monthly {
		for _, a := range row {
			if a < 0 || a > 1 {
				t.Fatalf("availability %v out of range", a)
			}
		}
	}
}

func TestUnavailabilityHistogramEmpty(t *testing.T) {
	out := UnavailabilityHistogram(nil, []float64{1.0})
	if out[0] != 0 {
		t.Fatal("empty input should give zeros")
	}
}

func TestSitesRegionsRoundRobin(t *testing.T) {
	sites := NewSites(1, 6, 3, DefaultFailureModel(), 100)
	for i, s := range sites {
		if s.Region != i%3 {
			t.Fatalf("site %d region %d", i, s.Region)
		}
	}
}
