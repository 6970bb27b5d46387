package server

import (
	"math"
	"testing"
)

func TestTokenBucketPacesToRate(t *testing.T) {
	b := NewTokenBucket(100, 10) // 100/s sustained, 10 burst
	admitted := 0
	// 2000 arrivals over 5 seconds = 400/s offered.
	for i := 0; i < 2000; i++ {
		if b.Allow(float64(i) * 5.0 / 2000) {
			admitted++
		}
	}
	// ~500 sustained plus the 10-token burst.
	if admitted < 480 || admitted > 540 {
		t.Fatalf("admitted %d of 2000 at 4x overload; want ≈510", admitted)
	}
}

func TestTokenBucketBurstThenDeny(t *testing.T) {
	b := NewTokenBucket(1, 5)
	for i := 0; i < 5; i++ {
		if !b.Allow(0) {
			t.Fatalf("burst admission %d denied on a full bucket", i)
		}
	}
	if b.Allow(0) {
		t.Fatal("6th instantaneous arrival admitted past a burst of 5")
	}
	// One second refills one token.
	if !b.Allow(1) {
		t.Fatal("arrival after refill denied")
	}
	if b.Allow(1) {
		t.Fatal("second arrival after a single-token refill admitted")
	}
}

func TestTokenBucketDisabled(t *testing.T) {
	b := NewTokenBucket(0, 5)
	for i := 0; i < 100; i++ {
		if !b.Allow(0) {
			t.Fatal("disabled bucket denied an arrival")
		}
	}
	var nilBucket *TokenBucket
	if !nilBucket.Allow(0) {
		t.Fatal("nil bucket denied an arrival")
	}
}

func TestShedderNilSafe(t *testing.T) {
	s := NewShedder(ShedConfig{}) // disabled
	if s != nil {
		t.Fatal("disabled config built a shedder")
	}
	s.Observe(1e9)
	if s.Level() != 0 || s.DropProb(Batch) != 0 {
		t.Fatal("nil shedder sheds")
	}
	if !s.Admit(Interactive, 0) || !s.Admit(Batch, 0) {
		t.Fatal("nil shedder denied an arrival")
	}
}

func TestShedderRampsAndRecovers(t *testing.T) {
	s := NewShedder(ShedConfig{TargetP99Ms: 100, Window: 50})
	// Latencies far past the SLO push the level up window by window.
	for i := 0; i < 500; i++ {
		s.Observe(1000)
	}
	high := s.Level()
	if high <= 0.4 {
		t.Fatalf("level %.3f after sustained 10x-SLO latency; want substantial", high)
	}
	if high > maxShedLevel+1e-12 {
		t.Fatalf("level %.3f exceeds the %.2f cap", high, maxShedLevel)
	}
	// Recovery: latencies far below the SLO decay the level back.
	for i := 0; i < 2000; i++ {
		s.Observe(1)
	}
	if lv := s.Level(); lv >= high/4 {
		t.Fatalf("level %.3f after sustained recovery (was %.3f); want decay", lv, high)
	}
}

func TestShedderDropsBatchFirst(t *testing.T) {
	s := NewShedder(ShedConfig{TargetP99Ms: 100, Window: 10})
	prevB, prevI := 0.0, 0.0
	for step := 0; step < 60; step++ {
		for i := 0; i < 10; i++ {
			s.Observe(800)
		}
		b, iv := s.DropProb(Batch), s.DropProb(Interactive)
		if b < iv {
			t.Fatalf("level %.3f: batch drop %.3f below interactive %.3f", s.Level(), b, iv)
		}
		if b < prevB-1e-12 || iv < prevI-1e-12 {
			t.Fatalf("drop probabilities fell while latency stayed high")
		}
		prevB, prevI = b, iv
	}
	// At the cap: all batch shed, but interactive keeps a trickle.
	if prevB != 1 {
		t.Fatalf("batch drop %.3f at cap; want 1", prevB)
	}
	if prevI >= 1 {
		t.Fatal("interactive fully shed; the cap must keep a trickle")
	}
	// Half-level boundary semantics: level 0.5 sheds all batch, no
	// interactive.
	s2 := &Shedder{level: 0.5}
	if s2.DropProb(Batch) != 1 || s2.DropProb(Interactive) != 0 {
		t.Fatalf("level 0.5: batch %.3f interactive %.3f; want 1 and 0",
			s2.DropProb(Batch), s2.DropProb(Interactive))
	}
}

func TestShedderInfiniteQuantileBounded(t *testing.T) {
	s := NewShedder(ShedConfig{TargetP99Ms: 10, Window: 10})
	// Every observation overflows the last bucket: the +Inf p99 must be
	// treated as a finite push, never poisoning the level.
	for i := 0; i < 100; i++ {
		s.Observe(1e12)
	}
	if lv := s.Level(); math.IsNaN(lv) || math.IsInf(lv, 0) || lv > maxShedLevel {
		t.Fatalf("level %v after overflow observations", lv)
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.Workers != 150 {
		t.Fatalf("default workers %d; want the paper's 150", c.Workers)
	}
	if c.QueueCap != 300 {
		t.Fatalf("default queue cap %d; want 2x workers", c.QueueCap)
	}
	if c.AdmitBurst != 150 {
		t.Fatalf("default burst %v; want Workers", c.AdmitBurst)
	}
	if c = (Config{QueueCap: -1}).withDefaults(); c.QueueCap != 0 {
		t.Fatalf("QueueCap -1 resolved to %d; want 0 (no queue)", c.QueueCap)
	}
}
