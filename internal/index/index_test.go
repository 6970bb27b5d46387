package index

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// buildTiny builds a small index with known contents.
func buildTiny(opts Options) *Index {
	b := NewBuilder(opts)
	b.AddDocument(10, []string{"apple", "banana", "apple"})
	b.AddDocument(20, []string{"banana", "cherry"})
	b.AddDocument(30, []string{"apple", "cherry", "cherry", "date"})
	return MustBuild(b)
}

// buildDocs is Build over fixture documents, whose IDs are distinct.
func buildDocs(tb testing.TB, opts Options, docs []Doc) *Index {
	tb.Helper()
	ix, err := Build(opts, docs)
	if err != nil {
		tb.Fatal(err)
	}
	return ix
}

// TestBuildRejectsRepeatedID: a repeated external ID is an error, not a
// silently dropped document.
func TestBuildRejectsRepeatedID(t *testing.T) {
	docs := []Doc{{Ext: 1, Terms: []string{"a"}}, {Ext: 2, Terms: []string{"b"}}, {Ext: 1, Terms: []string{"c"}}}
	if ix, err := Build(DefaultOptions(), docs); err == nil {
		t.Fatalf("Build accepted ID 1 twice: %d documents", ix.NumDocs())
	}
}

func TestIndexBasics(t *testing.T) {
	ix := buildTiny(DefaultOptions())
	if ix.NumDocs() != 3 || ix.NumTerms() != 4 {
		t.Fatalf("docs=%d terms=%d, want 3/4", ix.NumDocs(), ix.NumTerms())
	}
	if ix.DF("apple") != 2 || ix.DF("banana") != 2 || ix.DF("cherry") != 2 || ix.DF("date") != 1 {
		t.Fatal("document frequencies wrong")
	}
	if ix.CF("apple") != 3 || ix.CF("cherry") != 3 {
		t.Fatal("collection frequencies wrong")
	}
	if ix.DF("missing") != 0 || ix.CF("missing") != 0 {
		t.Fatal("missing term should have zero frequencies")
	}
	if ix.TotalLen() != 9 || ix.AvgDocLen() != 3 {
		t.Fatalf("total=%d avg=%v", ix.TotalLen(), ix.AvgDocLen())
	}
	if ix.ExtID(0) != 10 || ix.ExtID(2) != 30 {
		t.Fatal("external ID mapping wrong")
	}
	if ix.InternalID(20) != 1 || ix.InternalID(99) != -1 {
		t.Fatal("internal ID mapping wrong")
	}
	if ix.DocLen(2) != 4 {
		t.Fatalf("DocLen(2) = %d, want 4", ix.DocLen(2))
	}
}

func TestPostingsIteration(t *testing.T) {
	ix := buildTiny(DefaultOptions())
	it := ix.Postings("apple")
	if it == nil {
		t.Fatal("nil iterator for present term")
	}
	var got []Posting
	for it.Next() {
		got = append(got, it.Posting())
	}
	if len(got) != 2 || got[0].Doc != 0 || got[0].TF != 2 || got[1].Doc != 2 || got[1].TF != 1 {
		t.Fatalf("apple postings = %+v", got)
	}
	if ix.Postings("missing") != nil {
		t.Fatal("non-nil iterator for absent term")
	}
}

func TestPositions(t *testing.T) {
	ix := buildTiny(DefaultOptions())
	it := ix.PostingsWithPositions("apple")
	it.Next()
	p := it.Posting()
	if !reflect.DeepEqual(p.Pos, []int32{0, 2}) {
		t.Fatalf("apple positions in doc 0 = %v, want [0 2]", p.Pos)
	}
	// Plain iterator does not materialize positions.
	it2 := ix.Postings("apple")
	it2.Next()
	if it2.Posting().Pos != nil {
		t.Fatal("plain iterator materialized positions")
	}
}

// TestCompressionShrinksIndex: the encoded index is smaller than the same
// postings at a fixed 32 bits each for doc, TF, position count and every
// position.
func TestCompressionShrinksIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ix := buildDocs(t, DefaultOptions(), randomDocs(rng, 200, 500))
	var fixed int64
	for _, term := range ix.Terms() {
		fixed += 12*int64(ix.DF(term)) + 4*ix.CF(term)
	}
	if ix.SizeBytes() >= fixed {
		t.Fatalf("compressed %d bytes ≥ fixed %d bytes", ix.SizeBytes(), fixed)
	}
}

func TestSkipToMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	docs := randomDocs(rng, 400, 60)
	opts := DefaultOptions()
	opts.BlockSize = 16
	b := NewBuilder(opts)
	for _, d := range docs {
		b.AddDocument(d.Ext, d.Terms)
	}
	ix := MustBuild(b)

	for _, term := range ix.Terms()[:10] {
		// Collect all docs by linear scan.
		var all []int32
		it := ix.Postings(term)
		for it.Next() {
			all = append(all, it.Posting().Doc)
		}
		if len(all) == 0 {
			continue
		}
		// For a sample of targets, SkipTo must land on the first doc >= target.
		for _, target := range []int32{all[0], all[len(all)/2], all[len(all)-1], all[len(all)-1] + 1, 0} {
			it := ix.Postings(term)
			want := int32(-1)
			for _, d := range all {
				if d >= target {
					want = d
					break
				}
			}
			ok := it.SkipTo(target)
			if want == -1 {
				if ok {
					t.Fatalf("term %q SkipTo(%d) = true, want false", term, target)
				}
				continue
			}
			if !ok || it.Posting().Doc != want {
				t.Fatalf("term %q SkipTo(%d) = %v doc %d, want doc %d", term, target, ok, it.Posting().Doc, want)
			}
		}
	}
}

func TestSkipToThenNextContinues(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	docs := randomDocs(rng, 300, 40)
	b := NewBuilder(DefaultOptions())
	for _, d := range docs {
		b.AddDocument(d.Ext, d.Terms)
	}
	ix := MustBuild(b)
	term := ix.Terms()[0]
	var all []int32
	it := ix.Postings(term)
	for it.Next() {
		all = append(all, it.Posting().Doc)
	}
	if len(all) < 3 {
		t.Skip("list too short")
	}
	it = ix.Postings(term)
	it.SkipTo(all[1])
	if !it.Next() || it.Posting().Doc != all[2] {
		t.Fatalf("Next after SkipTo(doc[1]) gave %d, want %d", it.Posting().Doc, all[2])
	}
}

func TestEncodeDecodeRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		opts := Options{BlockSize: 8}
		n := 1 + rng.Intn(200)
		ps := make([]Posting, n)
		doc := int32(0)
		for i := range ps {
			doc += int32(1 + rng.Intn(50))
			np := 1 + rng.Intn(5)
			poss := make([]int32, np)
			pos := int32(0)
			for j := range poss {
				pos += int32(1 + rng.Intn(100))
				poss[j] = pos
			}
			ps[i] = Posting{Doc: doc, TF: int32(np), Pos: poss}
		}
		pl := encodePostings(ps, opts, nil)
		return reflect.DeepEqual(pl.decodeAll(opts.BlockSize), ps)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodePanicsOnUnsortedPostings(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("encodePostings accepted unsorted input")
		}
	}()
	encodePostings([]Posting{{Doc: 5, TF: 1}, {Doc: 3, TF: 1}}, DefaultOptions(), nil)
}

func TestDuplicateDocumentErrors(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	if err := b.AddDocument(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocument(1, []string{"b"}); err == nil {
		t.Fatal("duplicate AddDocument did not error")
	}
}

func TestLocalStatsAndMerge(t *testing.T) {
	ix := buildTiny(DefaultOptions())
	st := ix.LocalStats(nil)
	if st.NumDocs != 3 || st.DF["apple"] != 2 {
		t.Fatalf("LocalStats = %+v", st)
	}
	st2 := ix.LocalStats([]string{"apple", "missing"})
	if st2.DF["apple"] != 2 || len(st2.DF) != 1 {
		t.Fatalf("restricted LocalStats = %+v", st2)
	}
	g := MergeStats(st, st)
	if g.NumDocs != 6 || g.DF["apple"] != 4 {
		t.Fatalf("MergeStats = %+v", g)
	}
}

func TestEmptyIndex(t *testing.T) {
	ix := MustBuild(NewBuilder(DefaultOptions()))
	if ix.NumDocs() != 0 || ix.NumTerms() != 0 || ix.AvgDocLen() != 0 {
		t.Fatal("empty index not empty")
	}
	if ix.Postings("x") != nil {
		t.Fatal("empty index returned an iterator")
	}
}

// randomDocs generates n docs with up to maxLen terms from a small vocab.
func randomDocs(rng *rand.Rand, n, maxLen int) []Doc {
	vocab := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta",
		"eta", "theta", "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron"}
	docs := make([]Doc, n)
	for i := range docs {
		l := 1 + rng.Intn(maxLen)
		terms := make([]string, l)
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = Doc{Ext: i*3 + 1, Terms: terms}
	}
	return docs
}
