package rank

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"dwr/internal/index"
)

// workTotals sums the work counters the MaxScore kernel is pinned by.
type workTotals struct {
	postings, bytes, lists int64
}

func (w *workTotals) add(es EvalStats) {
	w.postings += int64(es.PostingsDecoded)
	w.bytes += es.BytesDecoded
	w.lists += int64(es.ListsAccessed)
}

// TestMaxScoreWorkPinned pins the pruned kernel's work — every Next and
// SkipTo it makes shows in PostingsDecoded and BytesDecoded — to the
// totals the evaluator produced before its candidate loop was rewritten
// for speed. A rewrite that adds or drops a single cursor move, or opens
// a list more or less, changes a total. The bytes also follow the block
// layout and every total follows the list bound (TermUpperBound) and,
// where one query list is present, the block maxima and their order, so
// a format or bound change re-pins them and nothing else. Each fixture
// runs k = 1, 10 and 100, unseeded and seeded at the exhaustive k-th
// score.
func TestMaxScoreWorkPinned(t *testing.T) {
	want := map[string]workTotals{
		"bs=8":       {postings: 122249, bytes: 187500, lists: 2077},
		"bs=64":      {postings: 127915, bytes: 269102, lists: 2077},
		"bs=default": {postings: 129599, bytes: 301569, lists: 2077},
		"view":       {postings: 127898, bytes: 305086, lists: 6550},
	}
	got := map[string]workTotals{}
	for _, bs := range []int{8, 64, 0} {
		opts := index.DefaultOptions()
		opts.BlockSize = bs
		ix := pruneCorpus(11, opts)
		s := NewScorer(FromIndex(ix))
		var w workTotals
		for _, q := range pruneQueries(rand.New(rand.NewSource(12)), ix, 150) {
			for _, k := range []int{1, 10, 100} {
				exh, _ := EvaluateOR(ix, s, q, k)
				_, es := evaluateTopK(ix, s, q, k, PruneMaxScore, 0)
				w.add(es)
				if len(exh) == k {
					_, es = evaluateTopK(ix, s, q, k, PruneMaxScore, exh[k-1].Score)
					w.add(es)
				}
			}
		}
		name := fmt.Sprintf("bs=%d", bs)
		if bs == 0 {
			name = "bs=default"
		}
		got[name] = w
	}

	docs := hotTail(71, 1792, 40)
	rng := rand.New(rand.NewSource(72))
	var dead []int
	for _, d := range docs {
		if rng.Intn(7) == 0 {
			dead = append(dead, d.Ext)
		}
	}
	view, compacted := tieredView(t, docs, dead)
	if len(view.Segments()) != 3 {
		t.Fatalf("fixture: %d segments, want 3", len(view.Segments()))
	}
	var w workTotals
	for _, q := range pruneQueries(rng, compacted, 150) {
		s := NewScorer(FromGlobal(view.LocalStats(q)))
		for _, k := range []int{1, 10, 100} {
			exh, _ := EvaluateOR(compacted, s, q, k)
			_, es := EvaluateView(view, s, q, k, PruneMaxScore, 0)
			w.add(es)
			if len(exh) == k {
				_, es = EvaluateView(view, s, q, k, PruneMaxScore, exh[k-1].Score)
				w.add(es)
			}
		}
	}
	got["view"] = w

	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: postings %d, bytes decoded %d, lists %d; pinned %d, %d, %d",
				name, g.postings, g.bytes, g.lists, want[name].postings, want[name].bytes, want[name].lists)
		}
	}
}

// TestMaxScoreTiesAtTheFloor: identical documents added in descending
// external ID score alike, so once the heap is full every later
// candidate ties its floor and, holding the lower external ID, must
// displace the root. An admission check that sends only strictly
// better scores to the heap keeps the wrong documents. Over one
// segment, over a view evaluated oldest first (every tie displaces) and
// newest first (every tie is refused), pruned evaluation equals
// exhaustive evaluation of the whole collection bit for bit.
func TestMaxScoreTiesAtTheFloor(t *testing.T) {
	const n, parts = 36, 3
	terms := []string{"a", "b", "a", "c", "d"}
	whole := index.NewBuilder(index.DefaultOptions())
	segs := make([]*index.Index, parts)
	for p := range segs {
		b := index.NewBuilder(index.DefaultOptions())
		for i := p * n / parts; i < (p+1)*n/parts; i++ {
			ext := n - 1 - i
			if err := b.AddDocument(ext, terms); err != nil {
				t.Fatal(err)
			}
			if err := whole.AddDocument(ext, terms); err != nil {
				t.Fatal(err)
			}
		}
		segs[p] = index.MustBuild(b)
	}
	ix := index.MustBuild(whole)
	s := NewScorer(FromIndex(ix))
	newestFirst := slices.Clone(segs)
	slices.Reverse(newestFirst)
	for _, q := range [][]string{{"a"}, {"b", "c"}, {"d", "a", "b"}} {
		for _, k := range []int{1, 3, 10} {
			want, _ := EvaluateOR(ix, s, q, k)
			if len(want) != k || want[k-1].Doc != k-1 {
				t.Fatalf("query %v k=%d: exhaustive %v, want external IDs 0..%d", q, k, want, k-1)
			}
			for _, seed := range []float64{0, want[k-1].Score} {
				got := map[string][]Result{}
				got["segment"], _ = evaluateTopK(ix, s, q, k, PruneMaxScore, seed)
				got["view oldest first"], _ = evaluateView(segs, nil, s, q, k, false, PruneMaxScore, seed)
				got["view newest first"], _ = evaluateView(newestFirst, nil, s, q, k, false, PruneMaxScore, seed)
				for name, rs := range got {
					if !reflect.DeepEqual(want, rs) {
						t.Errorf("%s, query %v, k=%d, seed %v:\nexhaustive %v\nmaxscore   %v", name, q, k, seed, want, rs)
					}
				}
			}
		}
	}
}

// oneTermSeed lays out a FuzzMaxScoreEqualsExhaustive input at block
// size 4: each document's terms (one to eight of t0..t7, in insertion
// order), the one-term query, k, the seed pick and the tombstone mask.
func oneTermSeed(docs [][]byte, term, k, pick, tomb byte) []byte {
	out := []byte{0, byte(len(docs) - 1), 1}
	for _, d := range docs {
		out = append(append(out, byte(len(d)-1)), d...)
	}
	return append(out, 0, term, k-1, pick, tomb)
}

// repeatDoc is n copies of one document's terms.
func repeatDoc(n int, terms ...byte) [][]byte {
	docs := make([][]byte, n)
	for i := range docs {
		docs[i] = terms
	}
	return docs
}

// FuzzMaxScoreEqualsExhaustive: over a small index the fuzz bytes choose
// — up to 64 documents over an eight-term alphabet, external IDs
// shuffled, block size 4 or 8 — and a query of one to four terms with
// repeats, k in 1..20 and an optional seed read off the exhaustive
// ranking at or below its k-th score, MaxScore returns EvaluateOR's
// ranking bit for bit and never decodes more postings than it. A last
// byte, when not zero, tombstones the documents at insertion positions i
// with bit i mod 8 set in a view of the same documents sealed as two
// segments: there MaxScore, seeded off the view's exhaustive ranking the
// same way, returns exhaustive evaluation's ranking of the view.
func FuzzMaxScoreEqualsExhaustive(f *testing.F) {
	f.Add([]byte{0, 40, 7, 3, 1, 2, 3, 9, 0})
	f.Add([]byte{1, 63, 200, 5, 4, 4, 4, 4, 2, 19, 3})
	f.Add([]byte{1, 17, 33, 2, 0, 0, 6, 0, 1})
	// One-term queries, which MaxScore evaluates block by block. A term
	// in one block only: t5 in three of twelve documents, k=2.
	f.Add(oneTermSeed(append(repeatDoc(3, 5, 5, 1), repeatDoc(9, 1, 2)...), 5, 2, 0, 0))
	// A term in every document, its tf and document length varying, at
	// k=5; then seeded one place below the k-th score, as a second wave
	// is seeded by the first.
	var every [][]byte
	for i := range 24 {
		d := []byte{0}
		if i%3 == 0 {
			d = append(d, 0)
		}
		for range i % 4 {
			d = append(d, byte(1+i%6))
		}
		every = append(every, d)
	}
	f.Add(oneTermSeed(every, 0, 5, 0, 0))
	f.Add(oneTermSeed(every, 0, 5, 3, 0))
	// Twelve equal documents: every score ties, so the k-th place at k=6
	// is settled by external ID across the blocks.
	f.Add(oneTermSeed(repeatDoc(12, 0, 1), 0, 6, 0, 0))
	// k=20 above the five postings of t2.
	f.Add(oneTermSeed(append(repeatDoc(5, 2, 3), repeatDoc(7, 3)...), 2, 20, 0, 0))
	// t3 in sixteen documents whose best are the four short ones at
	// positions 8..11, the first block of the view's second segment;
	// positions 0..3 and 8..11 tombstoned, k=3.
	best := slices.Concat(repeatDoc(8, 3, 1, 2, 4, 5), repeatDoc(4, 3, 3), repeatDoc(4, 3, 1, 2, 4, 5))
	f.Add(oneTermSeed(best, 3, 3, 0, 0b1111))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		opts := index.DefaultOptions()
		opts.BlockSize = 4 + 4*(next()&1)
		n := 1 + next()%64
		exts := rand.New(rand.NewSource(int64(next()))).Perm(n)
		docs := make([]index.Doc, n)
		b := index.NewBuilder(opts)
		for i, ext := range exts {
			terms := make([]string, 1+next()%8)
			for i := range terms {
				terms[i] = fmt.Sprintf("t%d", next()%8)
			}
			docs[i] = index.Doc{Ext: ext, Terms: terms}
			if err := b.AddDocument(ext, terms); err != nil {
				t.Fatal(err)
			}
		}
		ix := index.MustBuild(b)
		q := make([]string, 1+next()%4)
		for i := range q {
			q[i] = fmt.Sprintf("t%d", next()%8)
		}
		k := 1 + next()%20
		pick, tomb := next(), next()
		// seedOff reads the seed off an exhaustive ranking of every match.
		seedOff := func(all []Result) float64 {
			if j := k - 1 + pick/2; pick%2 == 1 && j < len(all) {
				return all[j].Score
			}
			return 0
		}
		s := NewScorer(FromIndex(ix))
		all, _ := EvaluateOR(ix, s, q, n)
		seed := seedOff(all)
		want, exh := EvaluateOR(ix, s, q, k)
		got, es := evaluateTopK(ix, s, q, k, PruneMaxScore, seed)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %v k=%d seed %v over %d docs (block size %d):\nexhaustive %v\nmaxscore   %v", q, k, seed, n, opts.BlockSize, want, got)
		}
		if es.PostingsDecoded > exh.PostingsDecoded {
			t.Fatalf("query %v k=%d seed %v: maxscore decoded %d postings, exhaustive %d", q, k, seed, es.PostingsDecoded, exh.PostingsDecoded)
		}
		if tomb == 0 {
			return
		}
		st := index.NewSegmentStore(opts, index.MergePolicy{Radix: 3})
		w := index.NewSegmentWriter(st, 1<<30)
		for i, d := range docs {
			if i == n/2 {
				if err := w.Cut(); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.AddDocument(d.Ext, d.Terms); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Cut(); err != nil {
			t.Fatal(err)
		}
		for i, d := range docs {
			if tomb&(1<<(i%8)) != 0 {
				w.Delete(d.Ext)
			}
		}
		view := st.Manifest()
		vs := NewScorer(FromGlobal(view.LocalStats(nil)))
		all, _ = EvaluateView(view, vs, q, n, PruneNone, 0)
		seed = seedOff(all)
		want, _ = EvaluateView(view, vs, q, k, PruneNone, 0)
		got, _ = EvaluateView(view, vs, q, k, PruneMaxScore, seed)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("view of %d segments, tombstones %08b, query %v k=%d seed %v:\nexhaustive %v\nmaxscore   %v", len(view.Segments()), tomb, q, k, seed, want, got)
		}
	})
}
