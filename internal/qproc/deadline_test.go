package qproc

import (
	"cmp"
	"errors"
	"slices"
	"testing"

	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/rank"
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

// TestDeadlineBudgetShrinksAcrossWaves: under threshold sharing, a later
// wave's partition calls get what the earlier waves left of the query's
// deadline, not all of it. The budget exceeds one silent attempt by less
// than the first wave's LAN hop, so the crashed second-wave partition
// has no time left for a retry: its call times out after one attempt.
func TestDeadlineBudgetShrinksAcrossWaves(t *testing.T) {
	const parts = 4
	docs := corpus(25, 400, 300)
	plain := newDocEngine(t, docs, parts, WithThresholdSharing(true))
	for _, q := range zipfQueries(26, 60, 300) {
		if qr := plain.QueryTopK(q, 10); qr.Waves != 2 || qr.PartitionsSkipped != 0 {
			continue
		}
		// The schedule's order: descending bound, ties by partition.
		order := []int{0, 1, 2, 3}
		bound := func(p int) float64 {
			return rank.QueryBound(index.ViewOf(plain.parts[p]), plain.precomputed[p], q)
		}
		slices.SortStableFunc(order, func(i, j int) int { return cmp.Compare(bound(j), bound(i)) })
		late := order[parts-1] // in the second wave
		e := newDocEngine(t, docs, parts, WithThresholdSharing(true),
			WithFaults(FaultPolicy{MaxRetries: 1, Replicas: 1}, faultsim.New(1).Unit(late, faultsim.Spec{Crash: true})))
		qr := e.QueryTopKWithin(q, 10, attemptTimeoutMs+lanMs/2)
		if f := e.Stats().Faults; qr.Waves != 2 || qr.Retries != 0 || f.Timeouts != 1 {
			t.Fatalf("query %v: %d waves, %d retries, %d timeouts; want the second wave's crashed call timed out unretried",
				q, qr.Waves, qr.Retries, f.Timeouts)
		}
		return
	}
	t.Fatal("no query ran two waves over every partition")
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

// TestLiveEngineDeadline: LiveEngine takes a virtual-time budget through
// QueryTopKWithin, as server.Run hands it; a budget no query can meet
// fails without being cached.
func TestLiveEngineDeadline(t *testing.T) {
	live, _ := liveFixture(t, corpus(28, 300, 200), 2, 32,
		WithResultCache(ResultCacheConfig{Capacity: 64}))
	var eng Engine = live
	q := []string{"w0001", "w0002"}
	qr := eng.QueryTopKWithin(q, 10, 1e-9)
	if !errors.Is(qr.Err, ErrDeadlineExceeded) || qr.Results != nil {
		t.Fatalf("tiny budget: err = %v with %d results, want ErrDeadlineExceeded and none", qr.Err, len(qr.Results))
	}
	if qr = eng.QueryTopK(q, 10); qr.Err != nil || qr.FromCache || len(qr.Results) == 0 {
		t.Fatalf("after busted query: err=%v fromCache=%v results=%d, want a clean miss", qr.Err, qr.FromCache, len(qr.Results))
	}
	if qr = eng.QueryTopKWithin(q, 10, 1e9); qr.Err != nil || !qr.FromCache {
		t.Fatalf("generous budget on hit: err=%v fromCache=%v", qr.Err, qr.FromCache)
	}
}
