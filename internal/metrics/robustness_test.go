package metrics

import "testing"

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
