package qproc

import (
	"reflect"
	"testing"

	"dwr/internal/faultsim"
	"dwr/internal/rank"
)

// TestDocEngineThresholdSharingEquivalence pins the tentpole guarantee
// end to end: a DocEngine running the bound-ordered wave schedule is
// bitwise rank-identical to single-wave exhaustive evaluation, at every
// broker width, cold and from the result cache, across pruning modes,
// stats modes, and k. Run under -race in CI.
func TestDocEngineThresholdSharingEquivalence(t *testing.T) {
	docs := corpus(51, 800, 1500)
	queries := zipfQueries(52, 60, 1500)
	parts := 8
	cases := []DocQueryOptions{
		{K: 10, Stats: GlobalPrecomputed},
		{K: 3, Stats: GlobalTwoRound},
		{K: 10, Stats: LocalOnly},
	}
	base := newDocEngine(t, docs, parts, WithWorkers(1))
	want := make([][][]rank.Result, len(cases))
	for ci, opt := range cases {
		want[ci] = make([][]rank.Result, len(queries))
		for qi, q := range queries {
			want[ci][qi] = base.Query(q, opt).Results
		}
	}
	for _, workers := range []int{1, 4, 16} {
		for _, mode := range []rank.Pruning{rank.PruneMaxScore} {
			e := newDocEngine(t, docs, parts,
				WithWorkers(workers),
				WithResultCache(ResultCacheConfig{Capacity: 256}),
				WithPruning(mode),
				WithThresholdSharing(true))
			for pass := 0; pass < 2; pass++ { // second pass exercises the result cache
				for ci, opt := range cases {
					for qi, q := range queries {
						got := e.Query(q, opt)
						if !reflect.DeepEqual(want[ci][qi], got.Results) {
							t.Fatalf("workers=%d mode=%d stats=%d k=%d pass=%d query %d %v:\nexhaustive %v\nshared     %v",
								workers, mode, opt.Stats, opt.K, pass, qi, q, want[ci][qi], got.Results)
						}
					}
				}
			}
		}
	}
}

// TestThresholdSharingSkipsAndSaves checks the point of the schedule:
// over a query batch the wave path skips partitions, decodes fewer
// posting bytes than the single-wave MaxScore baseline, and reports it
// all through QueryResult and EngineStats.Threshold.
func TestThresholdSharingSkipsAndSaves(t *testing.T) {
	docs := corpus(53, 1600, 1500)
	queries := zipfQueries(54, 150, 1500)
	parts := 8
	base := newDocEngine(t, docs, parts, WithPruning(rank.PruneMaxScore))
	ts := newDocEngine(t, docs, parts, WithPruning(rank.PruneMaxScore), WithThresholdSharing(true))
	var baseBytes, tsBytes int64
	var skipped, waves int
	for _, q := range queries {
		a := base.Query(q, DocQueryOptions{K: 10})
		b := ts.Query(q, DocQueryOptions{K: 10})
		sameRanking(t, a.Results, b.Results, "threshold sharing")
		if a.Waves != 1 {
			t.Fatalf("single-wave path reported %d waves", a.Waves)
		}
		if b.Waves < 1 {
			t.Fatalf("wave path reported %d waves", b.Waves)
		}
		if b.ServersContacted+b.PartitionsSkipped > parts {
			t.Fatalf("contacted %d + skipped %d exceeds %d partitions",
				b.ServersContacted, b.PartitionsSkipped, parts)
		}
		baseBytes += a.PostingBytesDecoded
		tsBytes += b.PostingBytesDecoded
		skipped += b.PartitionsSkipped
		waves += b.Waves
	}
	if tsBytes >= baseBytes {
		t.Fatalf("threshold sharing decoded %d bytes, single wave %d — no savings", tsBytes, baseBytes)
	}
	if skipped == 0 {
		t.Fatal("no partition was ever skipped")
	}
	st := ts.Stats().Threshold
	if st.Queries != len(queries) || st.Waves != waves ||
		st.PartitionsSkipped != skipped || st.PostingBytesDecoded != tsBytes {
		t.Fatalf("EngineStats.Threshold %+v inconsistent with per-query accounting (waves=%d skipped=%d bytes=%d)",
			st, waves, skipped, tsBytes)
	}
	if bs := base.Stats().Threshold; bs.Queries != 0 || bs.Waves != 0 {
		t.Fatalf("single-wave engine accumulated threshold counters: %+v", bs)
	}
	t.Logf("decoded bytes: single-wave %d, shared %d (%.1f%%); skipped %d/%d partition calls",
		baseBytes, tsBytes, 100*float64(tsBytes)/float64(baseBytes), skipped, len(queries)*parts)
}

// TestThresholdSharingOptionPlumbing: the per-query knob overrides the
// engine default in both directions, and the schedule is part of the
// result-cache key.
func TestThresholdSharingOptionPlumbing(t *testing.T) {
	docs := corpus(55, 400, 800)
	e := newDocEngine(t, docs, 4, WithThresholdSharing(true))
	q := []string{"w0003", "w0011"}
	def := e.Query(q, DocQueryOptions{K: 5})
	off := e.Query(q, DocQueryOptions{K: 5, Threshold: ThresholdSingleWave})
	sameRanking(t, def.Results, off.Results, "per-query single-wave override")
	if off.PartitionsSkipped != 0 || off.Waves != 1 {
		t.Fatalf("single-wave override still waved: %+v", off)
	}
	plain := newDocEngine(t, docs, 4)
	on := plain.Query(q, DocQueryOptions{K: 5, Threshold: ThresholdShared})
	sameRanking(t, def.Results, on.Results, "per-query shared override")
	if a, b := DocCacheKey(q, DocQueryOptions{K: 5}), DocCacheKey(q, DocQueryOptions{K: 5, Threshold: ThresholdShared}); a == b {
		t.Fatal("cache key ignores the threshold mode")
	}
}

// TestThresholdSharingUnderFaultsEquivalence: with the same injected
// fault schedule, the wave path returns the same (possibly degraded)
// answers as the single-wave path — partition skipping composes with
// retries, hedging, and loss — and two replays of the same configuration
// are byte-identical, with skipped partitions spending no retry budget.
func TestThresholdSharingUnderFaultsEquivalence(t *testing.T) {
	docs := corpus(57, 800, 1200)
	queries := zipfQueries(58, 120, 1200)
	parts := 8
	mk := func(shared bool) *DocEngine {
		return newDocEngine(t, docs, parts,
			WithWorkers(4),
			WithPruning(rank.PruneMaxScore),
			WithThresholdSharing(shared),
			WithFaultPolicy(FaultPolicy{MaxRetries: 2, Replicas: 2, Mode: BestEffort}),
			WithInjector(faultsim.New(42).Default(faultsim.Spec{FlakyP: 0.15, SlowP: 0.1, SlowMeanMs: 12})))
	}
	single, tsA, tsB := mk(false), mk(true), mk(true)
	for qi, q := range queries {
		s := single.Query(q, DocQueryOptions{K: 10})
		a := tsA.Query(q, DocQueryOptions{K: 10})
		b := tsB.Query(q, DocQueryOptions{K: 10})
		// Same tick and partition ⇒ same simulated fate, so every
		// dispatched partition fails or survives identically; skipped
		// partitions provably contribute nothing. Answers must agree.
		if !reflect.DeepEqual(s.Results, a.Results) {
			t.Fatalf("query %d %v: single-wave %v, shared %v", qi, q, s.Results, a.Results)
		}
		if !reflect.DeepEqual(a.Results, b.Results) || a.Retries != b.Retries ||
			a.PartitionsSkipped != b.PartitionsSkipped || a.Waves != b.Waves {
			t.Fatalf("query %d %v: replays diverged: %+v vs %+v", qi, q, a, b)
		}
		if a.Retries > s.Retries {
			t.Fatalf("query %d %v: wave path spent %d retries, single wave %d — skipped partitions charged retries",
				qi, q, a.Retries, s.Retries)
		}
	}
	fa, fb := tsA.Stats(), tsB.Stats()
	if fa.Faults != fb.Faults || !reflect.DeepEqual(fa.Threshold, fb.Threshold) {
		t.Fatalf("replayed fault/threshold counters diverged:\n%+v %+v\n%+v %+v",
			fa.Faults, fa.Threshold, fb.Faults, fb.Threshold)
	}
	if fs := single.Stats().Faults; fa.Faults.Retries > fs.Retries {
		t.Fatalf("wave path retried more than single wave: %+v vs %+v", fa.Faults, fs)
	}
}

// TestMultiSiteAggregatesDecodedBytes covers the aggregation bugfix:
// Submit must carry the executing site's PostingBytesDecoded (and
// ListsAccessed) into the site-level answer instead of dropping them.
func TestMultiSiteAggregatesDecodedBytes(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 0)
	r := m.Submit([]string{"w0001", "w0002"}, "w0001 w0002", 1, 0, 10)
	if r.Err != nil {
		t.Fatal(r.Err)
	}
	if r.PostingBytesDecoded == 0 {
		t.Fatal("multi-site answer dropped PostingBytesDecoded")
	}
	if r.ListsAccessed == 0 {
		t.Fatal("multi-site answer dropped ListsAccessed")
	}
	if r.PostingBytesRead < r.PostingBytesDecoded {
		t.Fatalf("decoded %d bytes exceeds read %d", r.PostingBytesDecoded, r.PostingBytesRead)
	}
}
