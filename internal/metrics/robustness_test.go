package metrics

import (
	"math"
	"testing"
)

func TestFaultCountersMerge(t *testing.T) {
	a := FaultCounters{FaultsSeen: 1, Retries: 2, Failovers: 3, Hedges: 4, HedgeWins: 5, Timeouts: 6, Lost: 7}
	b := FaultCounters{FaultsSeen: 10, Retries: 20, Failovers: 30, Hedges: 40, HedgeWins: 50, Timeouts: 60, Lost: 70}
	a.Merge(b)
	want := FaultCounters{FaultsSeen: 11, Retries: 22, Failovers: 33, Hedges: 44, HedgeWins: 55, Timeouts: 66, Lost: 77}
	if a != want {
		t.Fatalf("merge = %+v, want %+v", a, want)
	}
	if a.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestLatencyByPartQuantile(t *testing.T) {
	l := NewLatencyByPart(2, []float64{1, 10, 100})
	// Partition 0: 90 fast, 10 slow.
	for i := 0; i < 90; i++ {
		l.Add(0, 0.5)
	}
	for i := 0; i < 10; i++ {
		l.Add(0, 50)
	}
	if q := l.Quantile(0, 0.5); q != 1 {
		t.Fatalf("p50 = %v, want bucket bound 1", q)
	}
	if q := l.Quantile(0, 0.95); q != 100 {
		t.Fatalf("p95 = %v, want bucket bound 100", q)
	}
	// Empty partition: no estimate yet.
	if q := l.Quantile(1, 0.99); q != 0 {
		t.Fatalf("empty partition quantile = %v, want 0", q)
	}
	// Overflow tail.
	l.Add(1, 1e6)
	if q := l.Quantile(1, 0.99); !math.IsInf(q, 1) {
		t.Fatalf("overflow quantile = %v, want +Inf", q)
	}
	if a, b := l.Hist(0).Total(), l.Hist(1).Total(); a != 100 || b != 1 {
		t.Fatalf("totals = %d, %d", a, b)
	}
}

func TestLatencyByPartDefaults(t *testing.T) {
	l := NewLatencyByPart(3, nil)
	if len(l.hists) != 3 {
		t.Fatalf("parts = %d", len(l.hists))
	}
	l.Add(2, 3.0)
	if l.Hist(2).Total() != 1 {
		t.Fatal("Add did not land")
	}
	// Out-of-range adds and lookups are safe no-ops.
	l.Add(-1, 1)
	l.Add(99, 1)
	if l.Hist(99) != nil || l.Quantile(99, 0.5) != 0 {
		t.Fatal("out-of-range access not guarded")
	}
}
