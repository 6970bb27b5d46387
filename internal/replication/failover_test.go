package replication

import (
	"fmt"
	"testing"
)

func TestSelectorOrderPrimaryFirst(t *testing.T) {
	s := NewSelector(2, 3)
	if got := fmt.Sprint(s.Order(0, nil)); got != "[0 1 2]" {
		t.Fatalf("initial order = %s", got)
	}
}

func TestSelectorDemotesAfterConsecutiveFailures(t *testing.T) {
	s := NewSelector(1, 2)
	s.Report(0, 0, false)
	s.Report(0, 0, false)
	if s.primary[0] != 0 {
		t.Fatal("demoted before threshold")
	}
	s.Report(0, 0, false)
	if s.primary[0] != 1 {
		t.Fatalf("primary = %d after 3 consecutive failures, want 1", s.primary[0])
	}
	if got := fmt.Sprint(s.Order(0, nil)); got != "[1 0]" {
		t.Fatalf("order after demotion = %s", got)
	}
}

func TestSelectorSuccessResetsRun(t *testing.T) {
	s := NewSelector(1, 2)
	s.Report(0, 0, false)
	s.Report(0, 0, false)
	s.Report(0, 0, true)
	s.Report(0, 0, false)
	s.Report(0, 0, false)
	if s.primary[0] != 0 {
		t.Fatal("interleaved success did not reset the failure run")
	}
}

func TestSelectorPromotionPrefersHealthiestLowestIndex(t *testing.T) {
	s := NewSelector(1, 3)
	// Replica 1 has one failure, replica 2 is clean: demoting replica 0
	// must promote replica 2.
	s.Report(0, 1, false)
	for i := 0; i < demoteAfter; i++ {
		s.Report(0, 0, false)
	}
	if s.primary[0] != 2 {
		t.Fatalf("primary = %d, want healthiest replica 2", s.primary[0])
	}
}

func TestSelectorSingleReplicaStable(t *testing.T) {
	s := NewSelector(1, 1)
	for i := 0; i < 10; i++ {
		s.Report(0, 0, false)
	}
	if s.primary[0] != 0 {
		t.Fatal("single replica moved")
	}
	if got := fmt.Sprint(s.Order(0, nil)); got != "[0]" {
		t.Fatalf("order = %s", got)
	}
}

func TestSelectorIndependentPartitions(t *testing.T) {
	s := NewSelector(2, 2)
	for i := 0; i < demoteAfter; i++ {
		s.Report(0, 0, false)
	}
	if s.primary[0] != 1 || s.primary[1] != 0 {
		t.Fatalf("partition isolation broken: primaries %d,%d", s.primary[0], s.primary[1])
	}
}
