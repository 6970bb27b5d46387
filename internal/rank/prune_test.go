package rank

import (
	"math/rand"
	"reflect"
	"testing"

	"dwr/internal/index"
)

// pruneCorpus builds a seeded Zipf-ish corpus large enough that dynamic
// pruning actually skips blocks: 2000 docs over a 600-term vocabulary
// with frequency rank t appearing roughly 1/t as often.
func pruneCorpus(seed int64, opts index.Options) *index.Index {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.4, 1.0, 599)
	b := index.NewBuilder(opts)
	for d := 0; d < 2000; d++ {
		n := 20 + rng.Intn(60)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = "t" + string(rune('a'+int(z.Uint64())%26)) + string(rune('a'+int(z.Uint64())%26))
		}
		b.AddDocument(d, terms)
	}
	return index.MustBuild(b)
}

func pruneQueries(rng *rand.Rand, ix *index.Index, n int) [][]string {
	terms := ix.Terms()
	qs := make([][]string, n)
	for i := range qs {
		q := make([]string, 1+rng.Intn(4))
		for j := range q {
			q[j] = terms[rng.Intn(len(terms))]
		}
		qs[i] = q
	}
	return qs
}

// TestPrunedEquivalenceExhaustive pins the rank-identity guarantee: for
// every pruning mode, block size, and k, the pruned top-k equals the
// exhaustive top-k exactly — same documents, same order, bitwise-equal
// scores (survivor scores are recomputed in term order; see pruneSlack).
func TestPrunedEquivalenceExhaustive(t *testing.T) {
	for _, bs := range []int{0, 8, 64} {
		opts := index.DefaultOptions()
		opts.BlockSize = bs
		ix := pruneCorpus(11, opts)
		s := NewScorer(FromIndex(ix))
		rng := rand.New(rand.NewSource(12))
		queries := pruneQueries(rng, ix, 150)
		for _, mode := range []Pruning{PruneMaxScore} {
			for _, k := range []int{1, 3, 10, 100} {
				for qi, q := range queries {
					want, _ := EvaluateOR(ix, s, q, k)
					got, _ := EvaluateTopK(ix, s, q, k, mode)
					if !reflect.DeepEqual(want, got) {
						t.Fatalf("bs=%d mode=%d k=%d query %d %v:\nexhaustive %v\npruned     %v",
							bs, mode, k, qi, q, want, got)
					}
				}
			}
		}
	}
}

// TestPrunedEquivalenceNonDefaultScorer exercises the analytic-bound
// fallback: a scorer with non-default BM25 parameters, or with global
// statistics whose average document length exceeds the build-time one,
// invalidates a list's saturation bound, so pruning must bound the list
// from its max tf and min document length and still match the exhaustive
// ranking.
func TestPrunedEquivalenceNonDefaultScorer(t *testing.T) {
	ix := pruneCorpus(13, index.DefaultOptions())
	rng := rand.New(rand.NewSource(14))
	queries := pruneQueries(rng, ix, 100)
	st := FromIndex(ix)
	st.AvgDocLen *= 1.5 // simulates global stats differing from local
	scorers := []*Scorer{
		{K1: 0.9, B: 0.4, Stats: FromIndex(ix)},
		{K1: index.DefaultBM25K1, B: index.DefaultBM25B, Stats: st},
	}
	for si, s := range scorers {
		for _, mode := range []Pruning{PruneMaxScore} {
			for _, q := range queries {
				want, _ := EvaluateOR(ix, s, q, 10)
				got, _ := EvaluateTopK(ix, s, q, 10, mode)
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("scorer %d mode=%d query %v:\nexhaustive %v\npruned     %v",
						si, mode, q, want, got)
				}
			}
		}
	}
}

// TestPrunedEquivalenceFallbacks: PruneNone and k<=0 route to the
// exhaustive evaluator; empty, missing-term, and single-term queries
// behave identically across modes.
func TestPrunedEquivalenceFallbacks(t *testing.T) {
	ix := pruneCorpus(17, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	term := ix.Terms()[0]
	for _, q := range [][]string{nil, {"absent"}, {term}, {term, term, "absent"}} {
		want, _ := EvaluateOR(ix, s, q, 10)
		for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
			got, _ := EvaluateTopK(ix, s, q, 10, mode)
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("mode %d query %v: %v vs %v", mode, q, want, got)
			}
		}
	}
	if rs, _ := EvaluateTopK(ix, s, []string{term}, 0, PruneMaxScore); len(rs) != 0 {
		t.Fatalf("k=0 returned %v", rs)
	}
}

// TestPrunedDecodesFewerBytes is the point of the whole exercise: on
// top-10 queries the MaxScore evaluator must decode strictly fewer
// posting bytes than the exhaustive one, without changing results.
func TestPrunedDecodesFewerBytes(t *testing.T) {
	ix := pruneCorpus(19, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	rng := rand.New(rand.NewSource(20))
	var exhaustive, pruned int64
	for _, q := range pruneQueries(rng, ix, 200) {
		_, e1 := EvaluateOR(ix, s, q, 10)
		_, e2 := EvaluateTopK(ix, s, q, 10, PruneMaxScore)
		exhaustive += e1.BytesDecoded
		pruned += e2.BytesDecoded
	}
	if exhaustive == 0 {
		t.Fatal("exhaustive evaluation decoded nothing")
	}
	if pruned >= exhaustive {
		t.Fatalf("maxscore decoded %d bytes, exhaustive %d — no savings", pruned, exhaustive)
	}
	t.Logf("decoded bytes: exhaustive %d, maxscore %d (%.1f%%)",
		exhaustive, pruned, 100*float64(pruned)/float64(exhaustive))
}

// TestListBoundIsTermUpperBound pins the one rule: every list the pruned
// evaluator opens is ordered by TermUpperBound of that list's resident
// summary, so over one index its bounds add up to exactly the QueryBound
// a broker holds for the partition — under scorers on both sides of the
// summary's validity condition.
func TestListBoundIsTermUpperBound(t *testing.T) {
	ix := pruneCorpus(23, index.DefaultOptions())
	local := FromIndex(ix)
	larger := local
	larger.AvgDocLen *= 1.5
	scorers := []*Scorer{NewScorer(local), NewScorer(larger), {K1: 0.9, B: 0.4, Stats: local}}
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	rng := rand.New(rand.NewSource(24))
	for _, q := range append(pruneQueries(rng, ix, 100), []string{"absent", ix.Terms()[0], "absent"}) {
		for si, s := range scorers {
			var es EvalStats
			cursors := sc.open(ix, s, q, &es)
			opened, sum := 0, 0.0
			for _, term := range dedup(q) {
				m, ok := ix.TermScoreMeta(term)
				if !ok {
					continue
				}
				if opened == len(cursors) {
					t.Fatalf("scorer %d query %v: %d lists opened, term %q has none", si, q, len(cursors), term)
				}
				want := s.TermUpperBound(s.IDF(term), m)
				if got := cursors[opened].ub; got != want {
					t.Fatalf("scorer %d query %v term %q: list bound %g, TermUpperBound of its summary %g", si, q, term, got, want)
				}
				sum += want
				opened++
			}
			if opened != len(cursors) || opened != es.ListsAccessed {
				t.Fatalf("scorer %d query %v: %d cursors, %d lists accessed, %d terms present", si, q, len(cursors), es.ListsAccessed, opened)
			}
			if qb := QueryBound(index.ViewOf(ix), s, q); qb != sum {
				t.Fatalf("scorer %d query %v: evaluator bounds sum to %g, QueryBound %g", si, q, sum, qb)
			}
		}
	}
}
