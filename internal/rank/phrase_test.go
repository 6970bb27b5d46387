package rank

import (
	"testing"

	"dwr/internal/index"
)

func phraseIndex() *index.Index {
	b := index.NewBuilder(index.DefaultOptions())
	b.AddDocument(1, []string{"the", "quick", "brown", "fox"})
	b.AddDocument(2, []string{"quick", "brown", "quick", "brown", "cat"})
	b.AddDocument(3, []string{"brown", "quick"}) // reversed: no match
	b.AddDocument(4, []string{"quick", "x", "brown"})
	return index.MustBuild(b)
}

func TestPhraseMatches(t *testing.T) {
	ix := phraseIndex()
	var es EvalStats
	starts := phraseMatches(ix, []string{"quick", "brown"}, &es)
	if len(starts) != 2 {
		t.Fatalf("matched %d docs, want 2 (docs 1 and 2): %v", len(starts), starts)
	}
	if got := starts[1]; len(got) != 1 || got[0] != 1 {
		t.Fatalf("doc 1 starts = %v, want [1]", got)
	}
	if got := starts[2]; len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("doc 2 starts = %v, want [0 2]", got)
	}
	if es.PostingsDecoded == 0 || es.ListsAccessed != 2 {
		t.Fatalf("stats not recorded: %+v", es)
	}
}

func TestPhraseRepeatedTerm(t *testing.T) {
	b := index.NewBuilder(index.DefaultOptions())
	b.AddDocument(1, []string{"a", "b", "a"})
	b.AddDocument(2, []string{"a", "b", "c"})
	ix := index.MustBuild(b)
	starts := phraseMatches(ix, []string{"a", "b", "a"}, &EvalStats{})
	if len(starts) != 1 || len(starts[1]) != 1 || starts[1][0] != 0 {
		t.Fatalf("phrase 'a b a' matches = %v, want doc 1 at 0", starts)
	}
}

func TestPhraseMissingTerm(t *testing.T) {
	ix := phraseIndex()
	starts := phraseMatches(ix, []string{"quick", "zzz"}, &EvalStats{})
	if len(starts) != 0 {
		t.Fatalf("phrase with unknown term matched %v", starts)
	}
	rs, _ := EvaluatePhrase(ix, NewScorer(FromIndex(ix)), []string{"quick", "zzz"}, 10)
	if rs != nil {
		t.Fatalf("EvaluatePhrase returned %v", rs)
	}
}

func TestEvaluatePhraseRanking(t *testing.T) {
	ix := phraseIndex()
	s := NewScorer(FromIndex(ix))
	rs, _ := EvaluatePhrase(ix, s, []string{"quick", "brown"}, 10)
	if len(rs) != 2 {
		t.Fatalf("phrase results = %v", rs)
	}
	// Doc 2 has two phrase occurrences in length 5; doc 1 one in length 4:
	// doc 2 must rank first (higher tf dominates).
	if rs[0].Doc != 2 {
		t.Fatalf("ranking = %v, want doc 2 first", rs)
	}
}

func TestPhraseSingleTerm(t *testing.T) {
	ix := phraseIndex()
	starts := phraseMatches(ix, []string{"quick"}, &EvalStats{})
	if len(starts) != 4 {
		t.Fatalf("single-term phrase matched %d docs, want 4", len(starts))
	}
}

func TestEncodedPositionsSize(t *testing.T) {
	// Small deltas: one byte each.
	if got := EncodedPositionsSize([]int32{1, 2, 3, 4}); got != 4 {
		t.Fatalf("size = %d, want 4", got)
	}
	// Raw would be 16 bytes; compression must win on sorted positions.
	if got := EncodedPositionsSize([]int32{10, 300, 301, 305}); got >= 16 {
		t.Fatalf("size = %d, want < 16", got)
	}
	if got := EncodedPositionsSize(nil); got != 0 {
		t.Fatalf("empty size = %d", got)
	}
}

// TestPhraseStepDecodesKeptPositionsOnly: a posting whose document
// starts has already eliminated costs no positions, so against a
// one-document starts PhraseStep allocates as much for a list of 1 000
// postings as for one of 4.
func TestPhraseStepDecodesKeptPositionsOnly(t *testing.T) {
	allocs := func(n int) float64 {
		b := index.NewBuilder(index.DefaultOptions())
		for d := 0; d < n; d++ {
			b.AddDocument(d, []string{"w", "x", "w"})
		}
		ix := index.MustBuild(b)
		starts := map[int][]int32{0: {0}}
		return testing.AllocsPerRun(20, func() { PhraseStep(ix, "w", 0, starts, &EvalStats{}) })
	}
	if short, long := allocs(4), allocs(1000); long > short {
		t.Fatalf("PhraseStep allocates %v times over 1 000 postings, %v over 4", long, short)
	}
}
