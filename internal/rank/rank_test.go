package rank

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dwr/internal/index"
)

func buildIndex() *index.Index {
	b := index.NewBuilder(index.DefaultOptions())
	b.AddDocument(1, []string{"apple", "banana", "apple", "fig"})
	b.AddDocument(2, []string{"banana", "cherry"})
	b.AddDocument(3, []string{"apple", "cherry", "cherry"})
	b.AddDocument(4, []string{"date", "fig", "fig", "fig"})
	return index.MustBuild(b)
}

func TestEvaluateORBasics(t *testing.T) {
	ix := buildIndex()
	s := NewScorer(FromIndex(ix))
	rs, es := EvaluateOR(ix, s, []string{"apple"}, 10)
	if len(rs) != 2 {
		t.Fatalf("apple matched %d docs, want 2", len(rs))
	}
	// Doc 1 has tf=2 in a length-4 doc; doc 3 tf=1 length-3: doc 1 wins.
	if rs[0].Doc != 1 || rs[1].Doc != 3 {
		t.Fatalf("apple ranking = %+v", rs)
	}
	if es.PostingsDecoded == 0 || es.BytesRead == 0 {
		t.Fatal("evaluation stats not recorded")
	}
}

func TestEvaluateORMissingTerm(t *testing.T) {
	ix := buildIndex()
	s := NewScorer(FromIndex(ix))
	rs, _ := EvaluateOR(ix, s, []string{"nonexistent"}, 10)
	if rs != nil {
		t.Fatalf("missing term returned %v", rs)
	}
	rs, _ = EvaluateOR(ix, s, []string{"apple", "nonexistent"}, 10)
	if len(rs) != 2 {
		t.Fatalf("partial match returned %d docs, want 2", len(rs))
	}
}

func TestEvaluateANDSemantics(t *testing.T) {
	ix := buildIndex()
	s := NewScorer(FromIndex(ix))
	rs, _ := EvaluateAND(ix, s, []string{"apple", "cherry"}, 10)
	if len(rs) != 1 || rs[0].Doc != 3 {
		t.Fatalf("apple AND cherry = %+v, want doc 3 only", rs)
	}
	rs, _ = EvaluateAND(ix, s, []string{"apple", "nonexistent"}, 10)
	if rs != nil {
		t.Fatalf("AND with missing term returned %v", rs)
	}
}

func TestANDSubsetOfOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	b := index.NewBuilder(index.DefaultOptions())
	vocab := []string{"a", "b", "c", "d", "e", "f"}
	for d := 0; d < 200; d++ {
		n := 2 + rng.Intn(20)
		terms := make([]string, n)
		for i := range terms {
			terms[i] = vocab[rng.Intn(len(vocab))]
		}
		b.AddDocument(d, terms)
	}
	ix := index.MustBuild(b)
	s := NewScorer(FromIndex(ix))
	query := []string{"a", "b"}
	orRes, _ := EvaluateOR(ix, s, query, 1000)
	andRes, _ := EvaluateAND(ix, s, query, 1000)
	orDocs := map[int]float64{}
	for _, r := range orRes {
		orDocs[r.Doc] = r.Score
	}
	for _, r := range andRes {
		sc, ok := orDocs[r.Doc]
		if !ok {
			t.Fatalf("AND result doc %d missing from OR results", r.Doc)
		}
		if diff := sc - r.Score; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("doc %d scored %v in AND but %v in OR", r.Doc, r.Score, sc)
		}
	}
}

// TestANDScoresEqualORBitwise: a document the conjunction returns has
// the score the disjunction gives it, bit for bit. AND drives its
// intersection from the rarest list, but sums a match's contributions in
// query-term order, the order EvaluateOR sums them in.
func TestANDScoresEqualORBitwise(t *testing.T) {
	ix := pruneCorpus(96, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	all := ix.NumDocs()
	matched, differ := 0, 0
	for _, q := range pruneQueries(rand.New(rand.NewSource(5)), ix, 300) {
		orRes, _ := EvaluateOR(ix, s, q, all)
		or := make(map[int]float64, len(orRes))
		for _, r := range orRes {
			or[r.Doc] = r.Score
		}
		andRes, _ := EvaluateAND(ix, s, q, all)
		for _, r := range andRes {
			matched++
			if or[r.Doc] != r.Score {
				differ++
				if differ <= 3 {
					t.Errorf("query %v doc %d: AND score %v, OR score %v", q, r.Doc, r.Score, or[r.Doc])
				}
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d AND results score differently under OR", differ, matched)
	}
	if matched == 0 {
		t.Fatal("no query matched any document conjunctively")
	}
}

func TestTopKTruncation(t *testing.T) {
	ix := buildIndex()
	s := NewScorer(FromIndex(ix))
	rs, _ := EvaluateOR(ix, s, []string{"apple", "banana", "cherry", "date", "fig"}, 2)
	if len(rs) != 2 {
		t.Fatalf("k=2 returned %d results", len(rs))
	}
	full, _ := EvaluateOR(ix, s, []string{"apple", "banana", "cherry", "date", "fig"}, 10)
	if rs[0] != full[0] || rs[1] != full[1] {
		t.Fatalf("top-2 %v != head of full ranking %v", rs, full[:2])
	}
}

func TestIDFDecreasesWithDF(t *testing.T) {
	s := NewScorer(StatsSource{NumDocs: 1000, AvgDocLen: 10, DF: map[string]int{"rare": 2, "common": 900}})
	if s.IDF("rare") <= s.IDF("common") {
		t.Fatal("IDF not decreasing in document frequency")
	}
	if s.IDF("common") <= 0 {
		t.Fatal("IDF must stay positive")
	}
}

func TestMergeResultsEqualsCentral(t *testing.T) {
	// Partition the collection, evaluate per partition with GLOBAL
	// statistics, merge — must equal the centralized ranking. This is
	// the correctness core of the two-round protocol (C9).
	rng := rand.New(rand.NewSource(8))
	vocab := []string{"w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7"}
	docs := make([]index.Doc, 300)
	for i := range docs {
		n := 3 + rng.Intn(25)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = index.Doc{Ext: i, Terms: terms}
	}
	opts := index.DefaultOptions()
	central := index.NewBuilder(opts)
	parts := []*index.MemBuilder{index.NewBuilder(opts), index.NewBuilder(opts), index.NewBuilder(opts)}
	for i, d := range docs {
		central.AddDocument(d.Ext, d.Terms)
		parts[i%3].AddDocument(d.Ext, d.Terms)
	}
	cIx := index.MustBuild(central)
	gScorer := NewScorer(FromIndex(cIx))

	var partIx []*index.Index
	var stats []index.Stats
	for _, p := range parts {
		ix := index.MustBuild(p)
		partIx = append(partIx, ix)
		stats = append(stats, ix.LocalStats(nil))
	}
	global := FromGlobal(index.MergeStats(stats...))
	gs := NewScorer(global)

	query := []string{"w1", "w5"}
	want, _ := EvaluateOR(cIx, gScorer, query, 10)
	var lists [][]Result
	for _, ix := range partIx {
		rs, _ := EvaluateOR(ix, gs, query, 10)
		lists = append(lists, rs)
	}
	got := MergeResults(10, lists...)
	if len(got) != len(want) {
		t.Fatalf("merged %d results, central %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Doc != want[i].Doc {
			t.Fatalf("rank %d: merged doc %d, central doc %d", i, got[i].Doc, want[i].Doc)
		}
		if d := got[i].Score - want[i].Score; d > 1e-9 || d < -1e-9 {
			t.Fatalf("rank %d: score %v vs %v", i, got[i].Score, want[i].Score)
		}
	}
}

func TestOverlap(t *testing.T) {
	a := []Result{{1, 9}, {2, 8}, {3, 7}}
	b := []Result{{1, 9}, {3, 8}, {4, 7}}
	if got := Overlap(a, b, 3); got < 0.66 || got > 0.67 {
		t.Fatalf("Overlap = %v, want 2/3", got)
	}
	if got := Overlap(a, a, 3); got != 1 {
		t.Fatalf("self overlap = %v", got)
	}
	if got := Overlap(nil, b, 3); got != 0 {
		t.Fatalf("empty overlap = %v", got)
	}
}

// TestRecallEdgeCases pins the Recall helper: empty reference is
// perfect, disjoint answers are zero, overlap is fractional.
func TestRecallEdgeCases(t *testing.T) {
	if r := Recall(nil, nil); r != 1 {
		t.Fatalf("empty reference: %v", r)
	}
	ref := []Result{{Doc: 1}, {Doc: 2}, {Doc: 3}, {Doc: 4}}
	if r := Recall(nil, ref); r != 0 {
		t.Fatalf("empty answer: %v", r)
	}
	got := []Result{{Doc: 2}, {Doc: 4}, {Doc: 9}}
	if r := Recall(got, ref); r != 0.5 {
		t.Fatalf("partial overlap: %v", r)
	}
}

func TestKendallTau(t *testing.T) {
	a := []Result{{1, 4}, {2, 3}, {3, 2}, {4, 1}}
	rev := []Result{{4, 4}, {3, 3}, {2, 2}, {1, 1}}
	if got := KendallTau(a, a); got != 1 {
		t.Fatalf("tau(self) = %v", got)
	}
	if got := KendallTau(a, rev); got != -1 {
		t.Fatalf("tau(reversed) = %v", got)
	}
	if got := KendallTau(a, nil); got != 1 {
		t.Fatalf("tau(no common) = %v, want 1 by convention", got)
	}
}

func TestSortResultsDeterministicTies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rs := make([]Result, 20)
		for i := range rs {
			rs[i] = Result{Doc: rng.Intn(10), Score: float64(rng.Intn(3))}
		}
		SortResults(rs)
		for i := 1; i < len(rs); i++ {
			if rs[i-1].Score < rs[i].Score {
				return false
			}
			if rs[i-1].Score == rs[i].Score && rs[i-1].Doc > rs[i].Doc {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTopKZero(t *testing.T) {
	ix := buildIndex()
	s := NewScorer(FromIndex(ix))
	rs, _ := EvaluateOR(ix, s, []string{"apple"}, 0)
	if len(rs) != 0 {
		t.Fatalf("k=0 returned %d results", len(rs))
	}
}

// TestTermGolden pins Scorer.Term bit for bit to the literal BM25
// expression, idf·tf·(k1+1) / (tf + k1·(1−b+b·docLen/max(avg,1))) at
// k1 = 1.2, b = 0.75, over tf 1–50, docLen 0–5 000, averages below 1 and
// real ones and several idfs — and so is the term score the evaluators
// form from a norm table (WithNorms), over an index whose documents run
// from 1 to 300 tokens and then 1 000 and 5 000. The evaluators score
// through Term's two halves, and the oracle they are checked against
// (EvaluateOR) does too, so only this test ties a score to the formula.
func TestTermGolden(t *testing.T) {
	k1, b := 1.2, 0.75
	literal := func(tf int32, docLen int, idf, avg float64) float64 {
		return idf * float64(tf) * (k1 + 1) / (float64(tf) + k1*(1-b+b*float64(docLen)/math.Max(avg, 1)))
	}
	bl := index.NewBuilder(index.DefaultOptions())
	for ext, n := range append(seq(1, 300), 1000, 5000) {
		bl.AddDocument(ext, make([]string, n))
	}
	lens := index.MustBuild(bl)
	for _, avg := range []float64{0, 0.5, 1, 7.3, 42.5, 137.25, 1000.0 / 3} {
		s := NewScorer(StatsSource{AvgDocLen: avg})
		ts := s.WithNorms(lens)
		norms := ts.normsFor(lens)
		for _, idf := range []float64{1e-6, 0.3, 1.7, 6.25} {
			for tf := int32(1); tf <= 50; tf++ {
				for docLen := 0; docLen <= 5000; docLen++ {
					got, want := s.Term(tf, docLen, idf), literal(tf, docLen, idf, avg)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("avg=%g idf=%g tf=%d docLen=%d: Term %v, BM25 %v", avg, idf, tf, docLen, got, want)
					}
				}
				for d := int32(0); d < int32(lens.NumDocs()); d++ {
					got, want := ts.termNorm(tf, ts.docNorm(norms, lens, d), idf), literal(tf, lens.DocLen(d), idf, avg)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("avg=%g idf=%g tf=%d docLen=%d: table lookup %v, BM25 %v", avg, idf, tf, lens.DocLen(d), got, want)
					}
				}
			}
		}
	}
}

func seq(lo, hi int) []int {
	out := make([]int, 0, hi-lo+1)
	for i := lo; i <= hi; i++ {
		out = append(out, i)
	}
	return out
}

// TestNormTableKeepsTheBits: a scorer carrying an index's norm table
// (WithNorms) ranks that index exactly as the dividing scorer does —
// exhaustive, MaxScore unseeded and seeded at the k-th score, AND and
// phrase, bit for bit — and handed any other index it divides instead of
// reading the table: another partition, and the segments of a view over
// the very documents the table was built on, whose ordinals it would
// misread.
func TestNormTableKeepsTheBits(t *testing.T) {
	const k = 10
	evals := map[string]func(*index.Manifest, *Scorer, []string) []Result{
		"exhaustive": func(v *index.Manifest, s *Scorer, q []string) []Result {
			rs, _ := EvaluateView(v, s, q, k, PruneNone, 0)
			return rs
		},
		"MaxScore": func(v *index.Manifest, s *Scorer, q []string) []Result {
			rs, _ := EvaluateView(v, s, q, k, PruneMaxScore, 0)
			return rs
		},
		"MaxScore seeded": func(v *index.Manifest, s *Scorer, q []string) []Result {
			all, _ := EvaluateView(v, NewScorer(s.Stats), q, k, PruneNone, 0)
			if len(all) < k {
				return nil
			}
			rs, _ := EvaluateView(v, s, q, k, PruneMaxScore, all[k-1].Score)
			return rs
		},
		"AND": func(v *index.Manifest, s *Scorer, q []string) []Result {
			var out []Result
			for _, seg := range v.Segments() {
				rs, _ := EvaluateAND(seg, s, q, k)
				out = append(out, rs...)
			}
			return out
		},
		"phrase": func(v *index.Manifest, s *Scorer, q []string) []Result {
			rs, _ := EvaluateViewPhrase(v, s, q, k)
			return rs
		},
	}
	docs := viewCorpus(41, 2040)
	ix := staticIndex(t, docs)
	tiered, _ := tieredView(t, docs, nil)
	other := pruneCorpus(42, index.DefaultOptions())
	plain := NewScorer(FromIndex(ix))
	table := plain.WithNorms(ix)
	if table.normsFor(ix) == nil || table.normsFor(other) != nil || table.normsFor(tiered.Segments()[0]) != nil || plain.normsFor(ix) != nil {
		t.Fatal("normsFor hands out a table for an index it was not built on, or withholds its own")
	}
	rng := rand.New(rand.NewSource(43))
	queries := pruneQueries(rng, ix, 60)
	for _, d := range docs[:60] {
		i := rng.Intn(len(d.Terms) - 2)
		queries = append(queries, d.Terms[i:i+1+rng.Intn(2)]) // phrases that occur
	}
	for _, target := range []struct {
		name string
		v    *index.Manifest
	}{{"own index", index.ViewOf(ix)}, {"another partition", index.ViewOf(other)}, {"segments", tiered}} {
		for name, eval := range evals {
			hits := 0
			for _, q := range queries {
				want, got := eval(target.v, plain, q), eval(target.v, table, q)
				if !sameRanking(want, got) {
					t.Fatalf("%s, %s, query %v:\ndividing %v\ntable    %v", target.name, name, q, want, got)
				}
				hits += len(want)
			}
			if hits == 0 {
				t.Fatalf("%s, %s: no query returned anything", target.name, name)
			}
		}
	}
}
