package qproc

import (
	"errors"
	"testing"

	"dwr/internal/faultsim"
)

// TestDeadlineGenerousBudgetByteIdentity pins the serving contract: a
// budget no query can bust changes nothing, so a front-end propagating
// deadlines serves byte-identical answers to one that does not.
func TestDeadlineGenerousBudgetByteIdentity(t *testing.T) {
	docs := corpus(21, 400, 300)
	queries := zipfQueries(22, 80, 300)

	t.Run("doc", func(t *testing.T) {
		plain := buildDocEngine(t, docs, 4)
		budgeted := buildDocEngine(t, docs, 4)
		for _, q := range queries {
			want := qrFingerprint(plain.QueryTopK(q, 10))
			got := qrFingerprint(budgeted.QueryTopKWithin(q, 10, 1e9))
			if want != got {
				t.Fatalf("query %v diverged under generous budget:\n%s\nvs\n%s", q, want, got)
			}
		}
	})
}

// TestDeadlineTinyBudgetExceeded: a budget no query can meet yields a
// deadline failure with no results and latency capped at the budget.
func TestDeadlineTinyBudgetExceeded(t *testing.T) {
	docs := corpus(23, 300, 200)
	queries := zipfQueries(24, 40, 200)
	e := buildDocEngine(t, docs, 4)
	const budget = 1e-9
	for _, q := range queries {
		qr := e.QueryTopKWithin(q, 10, budget)
		if !errors.Is(qr.Err, ErrDeadlineExceeded) {
			t.Fatalf("%v: err = %v, want ErrDeadlineExceeded", q, qr.Err)
		}
		if qr.Results != nil {
			t.Fatalf("%v: deadline failure carried %d results", q, len(qr.Results))
		}
		if qr.LatencyMs > budget {
			t.Fatalf("%v: latency %v exceeds the %v budget", q, qr.LatencyMs, budget)
		}
	}
}

// TestDeadlineTightensFaultPolicy: an explicit per-call budget tighter
// than the engine's FaultPolicy.DeadlineMs wins; a looser one never
// relaxes the policy.
func TestDeadlineTightensFaultPolicy(t *testing.T) {
	docs := corpus(25, 400, 300)
	queries := zipfQueries(26, 60, 300)
	policy := FaultPolicy{Mode: BestEffort, DeadlineMs: 5, MaxRetries: 1, Replicas: 2}

	build := func() *DocEngine {
		return buildDocEngine(t, docs, 4,
			WithFaultPolicy(policy), WithInjector(faultsim.New(41)))
	}

	// Looser call budget: policy's 5 ms still governs, byte-identically.
	strict := build()
	loose := build()
	for _, q := range queries {
		want := qrFingerprint(strict.QueryTopK(q, 10))
		got := qrFingerprint(loose.QueryTopKWithin(q, 10, 1e9))
		if want != got {
			t.Fatalf("query %v: loose budget changed the answer:\n%s\nvs\n%s", q, want, got)
		}
	}

	// Tighter call budget: no answer may report more latency than it.
	tight := build()
	busted := 0
	for _, q := range queries {
		qr := tight.QueryTopKWithin(q, 10, 0.5)
		if qr.LatencyMs > 0.5 {
			t.Fatalf("query %v: latency %v exceeds the 0.5 ms call budget", q, qr.LatencyMs)
		}
		if errors.Is(qr.Err, ErrDeadlineExceeded) {
			busted++
		}
	}
	if busted == 0 {
		t.Fatal("0.5 ms budget busted no query; deadline not propagated")
	}
}

// TestDeadlineCacheInteraction: deadline failures are not cached, and a
// cache hit that would still arrive past the budget is refused too.
func TestDeadlineCacheInteraction(t *testing.T) {
	e := buildDocEngine(t, corpus(27, 300, 200), 4,
		WithResultCache(ResultCacheConfig{Capacity: 1024}))
	q := []string{"w0001", "w0002"}

	// Bust the budget; the failure must not poison the cache.
	qr := e.QueryTopKWithin(q, 10, 1e-9)
	if !errors.Is(qr.Err, ErrDeadlineExceeded) {
		t.Fatalf("tiny budget: err = %v", qr.Err)
	}
	qr = e.QueryTopK(q, 10)
	if qr.Err != nil || qr.FromCache {
		t.Fatalf("after busted query: err=%v fromCache=%v, want clean miss", qr.Err, qr.FromCache)
	}

	// Now cached: a generous budget serves the hit, a tiny one refuses it.
	qr = e.QueryTopKWithin(q, 10, 1e9)
	if qr.Err != nil || !qr.FromCache {
		t.Fatalf("generous budget on hit: err=%v fromCache=%v", qr.Err, qr.FromCache)
	}
	qr = e.QueryTopKWithin(q, 10, 1e-9)
	if !errors.Is(qr.Err, ErrDeadlineExceeded) {
		t.Fatalf("tiny budget on hit: err = %v, want ErrDeadlineExceeded", qr.Err)
	}
}

// TestLiveEngineDeadline: a front-end finds LiveEngine through the
// DeadlineQuerier assertion, so `dwrserve -live -deadline N` propagates
// its budget; a budget no query can meet fails without being cached.
func TestLiveEngineDeadline(t *testing.T) {
	live, _ := liveFixture(t, corpus(28, 300, 200), 2, 32,
		WithResultCache(ResultCacheConfig{Capacity: 64}))
	var eng Engine = live
	dq, ok := eng.(DeadlineQuerier)
	if !ok {
		t.Fatal("LiveEngine is not a DeadlineQuerier: a serving deadline would be dropped")
	}
	q := []string{"w0001", "w0002"}
	qr := dq.QueryTopKWithin(q, 10, 1e-9)
	if !errors.Is(qr.Err, ErrDeadlineExceeded) || qr.Results != nil {
		t.Fatalf("tiny budget: err = %v with %d results, want ErrDeadlineExceeded and none", qr.Err, len(qr.Results))
	}
	if qr = eng.QueryTopK(q, 10); qr.Err != nil || qr.FromCache || len(qr.Results) == 0 {
		t.Fatalf("after busted query: err=%v fromCache=%v results=%d, want a clean miss", qr.Err, qr.FromCache, len(qr.Results))
	}
	if qr = dq.QueryTopKWithin(q, 10, 1e9); qr.Err != nil || !qr.FromCache {
		t.Fatalf("generous budget on hit: err=%v fromCache=%v", qr.Err, qr.FromCache)
	}
}
