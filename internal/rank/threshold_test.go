package rank

import (
	"math/rand"
	"reflect"
	"testing"

	"dwr/internal/index"
)

// TestSeededEquivalence pins the threshold-seeding safety contract: for
// any true lower bound `seed` on the k-th score a broker cares about,
// the seeded evaluation returns every document scoring at least seed
// with a bitwise-identical score — seeding can only drop documents that
// provably lose against the seed.
func TestSeededEquivalence(t *testing.T) {
	ix := pruneCorpus(41, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	rng := rand.New(rand.NewSource(42))
	queries := pruneQueries(rng, ix, 120)
	filter := func(rs []Result, seed float64) []Result {
		out := []Result{}
		for _, r := range rs {
			if r.Score >= seed {
				out = append(out, r)
			}
		}
		return out
	}
	for _, mode := range []Pruning{PruneMaxScore} {
		for _, k := range []int{1, 5, 10} {
			for qi, q := range queries {
				exh, _ := EvaluateOR(ix, s, q, k)
				seeds := []float64{0}
				if len(exh) > 0 {
					kth := exh[len(exh)-1].Score
					seeds = append(seeds, kth/2, kth, exh[0].Score)
				}
				for _, seed := range seeds {
					got, es := evaluateTopK(ix, nil, s, q, k, mode, seed)
					want := filter(exh, seed)
					if !reflect.DeepEqual(want, filter(got, seed)) {
						t.Fatalf("mode=%d k=%d query %d %v seed=%g:\nexhaustive(≥seed) %v\nseeded(≥seed)     %v",
							mode, k, qi, q, seed, want, filter(got, seed))
					}
					if len(exh) >= k && es.FinalThreshold < exh[len(exh)-1].Score {
						t.Fatalf("mode=%d k=%d query %v seed=%g: FinalThreshold %g below k-th score %g",
							mode, k, q, seed, es.FinalThreshold, exh[len(exh)-1].Score)
					}
					if seed > 0 && es.FinalThreshold < seed {
						t.Fatalf("FinalThreshold %g below seed %g", es.FinalThreshold, seed)
					}
				}
			}
		}
	}
}

// TestSeedZeroMatchesUnseeded: seed 0 (and negative seeds) must leave
// the evaluation byte-identical to the unseeded entry points.
func TestSeedZeroMatchesUnseeded(t *testing.T) {
	ix := pruneCorpus(43, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	rng := rand.New(rand.NewSource(44))
	for _, q := range pruneQueries(rng, ix, 60) {
		for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
			want, wes := EvaluateTopK(ix, s, q, 10, mode)
			for _, seed := range []float64{0, -1} {
				got, ges := evaluateTopK(ix, nil, s, q, 10, mode, seed)
				if !reflect.DeepEqual(want, got) || wes != ges {
					t.Fatalf("mode=%d query %v seed=%g: unseeded %v %+v, seeded %v %+v",
						mode, q, seed, want, wes, got, ges)
				}
			}
		}
	}
}

// TestTopKMerger: incremental wave merging equals one-shot MergeResults
// regardless of list order, and Threshold reports exactly the running
// k-th best score.
func TestTopKMerger(t *testing.T) {
	ix := pruneCorpus(45, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	rng := rand.New(rand.NewSource(46))
	for _, q := range pruneQueries(rng, ix, 40) {
		full, _ := EvaluateOR(ix, s, q, 50)
		// Slice the result list into uneven "partitions".
		var lists [][]Result
		for i := 0; i < len(full); {
			n := 1 + rng.Intn(7)
			if i+n > len(full) {
				n = len(full) - i
			}
			lists = append(lists, full[i:i+n])
			i += n
		}
		rng.Shuffle(len(lists), func(i, j int) { lists[i], lists[j] = lists[j], lists[i] })
		k := 10
		m := NewTopKMerger(k)
		for _, l := range lists {
			m.Add(l)
		}
		want := MergeResults(k, lists...)
		if got := m.Results(); !reflect.DeepEqual(want, got) {
			t.Fatalf("query %v: merger %v, MergeResults %v", q, got, want)
		}
		thr, ok := m.Threshold()
		if len(full) >= k {
			if !ok || thr != want[k-1].Score {
				t.Fatalf("query %v: threshold %g ok=%v, want k-th score %g", q, thr, ok, want[k-1].Score)
			}
		} else if ok {
			t.Fatalf("query %v: threshold reported with only %d results", q, len(full))
		}
	}
	if _, ok := NewTopKMerger(0).Threshold(); ok {
		t.Fatal("k=0 merger reported a threshold")
	}
}

// TestTermUpperBoundDominates: the resident per-term bound must dominate
// every real posting's score contribution, for the default scorer
// (saturation bound valid), a scorer with a smaller global average
// (saturation bound still valid by monotonicity), and scorers where only
// the analytic bound applies (larger average, non-default constants) —
// over one index, and over a multi-segment view whose summary is
// MergeTermScoreMeta's fold of its segments'.
func TestTermUpperBoundDominates(t *testing.T) {
	docs := viewCorpus(47, 2000)
	segmented := segmentedStore(t, docs, 31).Manifest()
	if segmented.NumSegments() < 3 {
		t.Fatalf("view holds %d segments; the fixture merges no summaries", segmented.NumSegments())
	}
	ix := staticIndex(t, docs)
	queries := pruneQueries(rand.New(rand.NewSource(48)), ix, 60)
	for vi, view := range []*index.Manifest{index.ViewOf(ix), segmented} {
		local := FromGlobal(view.LocalStats(nil))
		smaller, larger := local, local
		smaller.AvgDocLen *= 0.7
		larger.AvgDocLen *= 1.5
		scorers := []*Scorer{
			NewScorer(local),
			NewScorer(smaller),
			NewScorer(larger),
			{K1: 0.9, B: 0.4, Stats: local},
		}
		for term := range local.DF {
			m, ok := view.TermScoreMeta(term)
			if !ok {
				t.Fatalf("view %d: term %q has no score metadata", vi, term)
			}
			for si, s := range scorers {
				idf := s.IDF(term)
				ub := s.TermUpperBound(idf, m)
				// The saturation bound may differ from a real score by one ulp
				// of rounding (different operation association), which is
				// exactly what the evaluators' pruneSlack tolerance absorbs:
				// the safety property is that no real score makes the bound
				// non-competitive, i.e. a partition holding that document is
				// never skipped.
				for _, seg := range view.Segments() {
					for it := seg.Postings(term); it != nil && it.Next(); {
						p := it.Posting()
						if got := s.Term(p.TF, seg.DocLen(p.Doc), idf); !Competitive(ub, got) {
							t.Fatalf("view %d scorer %d term %q doc %d: score %g beats bound %g beyond slack", vi, si, term, p.Doc, got, ub)
						}
					}
				}
			}
		}
		// QueryBound dominates every document's disjunctive score.
		for _, q := range queries {
			for si, s := range scorers {
				qb := QueryBound(view, s, q)
				rs, _ := EvaluateView(view, s, q, 1, PruneNone, 0)
				if len(rs) > 0 && !Competitive(qb, rs[0].Score) {
					t.Fatalf("view %d scorer %d query %v: best score %g beats query bound %g beyond slack", vi, si, q, rs[0].Score, qb)
				}
			}
		}
		if qb := QueryBound(view, NewScorer(local), []string{"absent", "alsoabsent"}); qb != 0 {
			t.Fatalf("view %d: query bound %g for absent terms, want 0", vi, qb)
		}
	}
}

// TestCompetitive: bounds at or slack-close-below the threshold stay
// competitive; clearly lower bounds do not.
func TestCompetitive(t *testing.T) {
	if !Competitive(10, 10) {
		t.Fatal("bound equal to threshold must be competitive")
	}
	if !Competitive(10*(1-1e-12), 10) {
		t.Fatal("bound within slack of threshold must be competitive")
	}
	if Competitive(9, 10) {
		t.Fatal("bound clearly below threshold must not be competitive")
	}
	if !Competitive(0, 0) {
		t.Fatal("zero threshold must keep every bound competitive")
	}
}
