package rank

import (
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
