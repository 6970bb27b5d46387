package rank

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"dwr/internal/index"
)

// viewCorpus is pruneCorpus as documents, so the same collection can be
// built once as a static index and streamed through segment writers.
func viewCorpus(seed int64, n int) []index.Doc {
	rng := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(rng, 1.4, 1.0, 599)
	docs := make([]index.Doc, n)
	for d := range docs {
		terms := make([]string, 20+rng.Intn(60))
		for i := range terms {
			terms[i] = "t" + string(rune('a'+int(z.Uint64())%26)) + string(rune('a'+int(z.Uint64())%26))
		}
		docs[d] = index.Doc{Ext: d, Terms: terms}
	}
	return docs
}

func staticIndex(t *testing.T, docs []index.Doc) *index.Index {
	t.Helper()
	b := index.NewBuilder(index.DefaultOptions())
	for _, d := range docs {
		if err := b.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
	}
	return index.MustBuild(b)
}

// segmented streams docs through a writer sealing every segDocs
// documents and cuts the rest, leaving its store mid-cascade with
// several tiers resident and its View equal to the store's manifest.
func segmented(t testing.TB, docs []index.Doc, segDocs int) *index.SegmentWriter {
	t.Helper()
	st := index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
	w := index.NewSegmentWriter(st, segDocs)
	for _, d := range docs {
		if err := w.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Cut(); err != nil {
		t.Fatal(err)
	}
	return w
}

// hotTail is viewCorpus with its last hot documents made short and
// repetitive — three consecutive terms of an older document, four times
// over — so they outscore the older documents for queries and phrases
// over those terms.
func hotTail(seed int64, n, hot int) []index.Doc {
	docs := viewCorpus(seed, n)
	rng := rand.New(rand.NewSource(seed + 1))
	for d := n - hot; d < n; d++ {
		src := docs[rng.Intn(n-hot)].Terms
		i := rng.Intn(len(src) - 2)
		docs[d].Terms = nil
		for r := 0; r < 4; r++ {
			docs[d].Terms = append(docs[d].Terms, src[i:i+3]...)
		}
	}
	return docs
}

// tieredView seals docs as segments of halving size, 1024 documents
// first — 2040 docs make eight segments, down to 8 documents, and 1792
// make three — which a radix-2 merge policy leaves resident; tombstones
// dead; and returns that view with the index the writer's Build
// compacts it into.
func tieredView(t testing.TB, docs []index.Doc, dead []int) (*index.Manifest, *index.Index) {
	t.Helper()
	st := index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 2})
	w := index.NewSegmentWriter(st, 1<<30)
	n, size, cuts := 0, 1024, 0
	for _, d := range docs {
		if err := w.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
		if n++; n == size {
			if err := w.Cut(); err != nil {
				t.Fatal(err)
			}
			n, size, cuts = 0, size/2, cuts+1
		}
	}
	for _, ext := range dead {
		if !w.Delete(ext) {
			t.Fatalf("Delete(%d) found nothing", ext)
		}
	}
	view := st.Manifest()
	if len(view.Segments()) != cuts || len(view.Tombstoned()) != len(dead) {
		t.Fatalf("fixture: %d segments, %d tombstones; want %d and %d", len(view.Segments()), len(view.Tombstoned()), cuts, len(dead))
	}
	compacted, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	return view, compacted
}

// TestViewEquivalenceSharedHeap: over eight segments whose newest hold
// the best documents — so the view's one heap, and with it MaxScore's
// threshold, rises mid-view — exhaustive, MaxScore, seeded MaxScore and
// phrase evaluation of the view each equal, bit for bit, evaluating the
// compacted index (which has dropped the view's pending tombstones) with
// the same scorer.
func TestViewEquivalenceSharedHeap(t *testing.T) {
	const n, hot = 2040, 60
	docs := hotTail(67, n, hot)
	rng := rand.New(rand.NewSource(68))
	var dead []int
	for _, d := range docs {
		if rng.Intn(6) == 0 {
			dead = append(dead, d.Ext)
		}
	}
	view, compacted := tieredView(t, docs, dead)
	queries := pruneQueries(rng, compacted, 100)
	for _, d := range docs[n-hot:] {
		queries = append(queries, d.Terms[:1+rng.Intn(3)])
	}
	lateTop := 0
	for qi, q := range queries {
		s := NewScorer(FromGlobal(view.LocalStats(q)))
		for _, k := range []int{1, 10, 100} {
			want, _ := EvaluateOR(compacted, s, q, k)
			if k == 1 && len(want) > 0 && want[0].Doc >= n-hot {
				lateTop++
			}
			for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
				if got, _ := EvaluateView(view, s, q, k, mode, 0); !sameRanking(want, got) {
					t.Fatalf("mode=%d k=%d query %d %v:\ncompacted %v\nview      %v", mode, k, qi, q, want, got)
				}
			}
			if len(want) == k {
				if seeded, _ := EvaluateView(view, s, q, k, PruneMaxScore, want[k-1].Score); !sameRanking(want, seeded) {
					t.Fatalf("k=%d query %v seeded at the k-th score:\ncompacted %v\nseeded    %v", k, q, want, seeded)
				}
			}
		}
	}
	if lateTop < hot/2 {
		t.Fatalf("only %d of %d queries rank a document of the newest segments first", lateTop, len(queries))
	}
	for _, d := range docs[n-2*hot:] {
		i := rng.Intn(len(d.Terms) - 1)
		ph := d.Terms[i : i+2]
		s := NewScorer(FromGlobal(view.LocalStats(ph)))
		for _, k := range []int{1, 10, 100} {
			want, _ := EvaluatePhrase(compacted, s, ph, k)
			if got, _ := EvaluateViewPhrase(view, s, ph, k); !sameRanking(want, got) {
				t.Fatalf("phrase k=%d %v:\ncompacted %v\nview      %v", k, ph, want, got)
			}
		}
	}
}

// TestViewEquivalenceSegmentedMatchesStatic: a collection cut into
// several segments ranks exactly as the same collection in one index —
// same documents, same order, bitwise-equal scores — for every pruning
// mode and k, unseeded and seeded with a true lower bound, because every
// segment is scored with the view-wide statistics.
func TestViewEquivalenceSegmentedMatchesStatic(t *testing.T) {
	docs := viewCorpus(61, 1400)
	ix := staticIndex(t, docs)
	view := segmented(t, docs, 31).View() // tiers of 992, 310, 93 and 5 documents
	if len(view.Segments()) < 3 {
		t.Fatalf("view holds %d segments; the fixture exercises no cross-segment seeding", len(view.Segments()))
	}
	rng := rand.New(rand.NewSource(62))
	for qi, q := range pruneQueries(rng, ix, 120) {
		s := NewScorer(FromGlobal(view.LocalStats(q)))
		if static := NewScorer(FromGlobal(ix.LocalStats(q))); !reflect.DeepEqual(s, static) {
			t.Fatalf("query %v: view statistics %+v differ from the static index's %+v", q, s.Stats, static.Stats)
		}
		for _, k := range []int{1, 10, 100} {
			want, _ := EvaluateOR(ix, s, q, k)
			for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
				got, _ := EvaluateView(view, s, q, k, mode, 0)
				if len(want) == 0 && len(got) == 0 {
					continue
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("mode=%d k=%d query %d %v:\nstatic    %v\nsegmented %v", mode, k, qi, q, want, got)
				}
				// Seeded at the true k-th score, everything scoring at or
				// above the seed must still come back.
				if mode != PruneNone && len(want) == k {
					seeded, _ := EvaluateView(view, s, q, k, mode, want[k-1].Score)
					if !reflect.DeepEqual(want, seeded) {
						t.Fatalf("mode=%d k=%d query %v seeded at the k-th score:\nstatic %v\nseeded %v", mode, k, q, want, seeded)
					}
				}
			}
		}
	}
}

// TestViewEquivalenceSingleSegmentIsTheEvaluator: over a one-segment,
// tombstone-free view EvaluateView is evaluateTopK — same
// list, same accounting — so wrapping a static index costs nothing.
func TestViewEquivalenceSingleSegmentIsTheEvaluator(t *testing.T) {
	ix := pruneCorpus(63, index.DefaultOptions())
	view := index.ViewOf(ix)
	s := NewScorer(FromIndex(ix))
	rng := rand.New(rand.NewSource(64))
	for _, q := range pruneQueries(rng, ix, 60) {
		for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
			for _, seed := range []float64{0, 2.5} {
				want, wes := evaluateTopK(ix, s, q, 10, mode, seed)
				got, ges := EvaluateView(view, s, q, 10, mode, seed)
				if !reflect.DeepEqual(want, got) || wes != ges {
					t.Fatalf("mode=%d seed=%v query %v:\nevaluator %v %+v\nview      %v %+v", mode, seed, q, want, wes, got, ges)
				}
			}
		}
	}
}

// TestViewEquivalenceTombstones: with tombstones pending, pruned
// evaluation equals exhaustive over the same view, no tombstoned
// document is ever returned, and the ranking is the one a static index
// built without those documents gives under the view's statistics.
func TestViewEquivalenceTombstones(t *testing.T) {
	docs := viewCorpus(65, 1600)
	w := segmented(t, docs, 83) // tiers of 1245, 249, 83 and 23 documents
	rng := rand.New(rand.NewSource(66))
	dead := map[int]bool{}
	var live []index.Doc
	for _, d := range docs {
		if rng.Intn(5) == 0 {
			if !w.Delete(d.Ext) {
				t.Fatalf("Delete(%d) found nothing", d.Ext)
			}
			dead[d.Ext] = true
		} else {
			live = append(live, d)
		}
	}
	view := w.View()
	if len(view.Tombstoned()) != len(dead) || len(view.Segments()) < 3 {
		t.Fatalf("fixture: %d tombstones pending (want %d) over %d segments", len(view.Tombstoned()), len(dead), len(view.Segments()))
	}
	survivors := staticIndex(t, live)
	for qi, q := range pruneQueries(rng, survivors, 120) {
		s := NewScorer(FromGlobal(view.LocalStats(q)))
		for _, k := range []int{1, 10, 100} {
			want, _ := EvaluateOR(survivors, s, q, k)
			for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
				got, _ := EvaluateView(view, s, q, k, mode, 0)
				for _, r := range got {
					if dead[r.Doc] {
						t.Fatalf("mode=%d k=%d query %v returned tombstoned doc %d", mode, k, q, r.Doc)
					}
				}
				if (len(want) > 0 || len(got) > 0) && !reflect.DeepEqual(want, got) {
					t.Fatalf("mode=%d k=%d query %d %v:\nsurvivors  %v\ntombstoned %v", mode, k, qi, q, want, got)
				}
			}
		}
	}
	// Phrases: consecutive term pairs of the corpus, so they occur — some
	// only in tombstoned documents.
	matched := 0
	for pi := 0; pi < 120; pi++ {
		d := docs[rng.Intn(len(docs))]
		i := rng.Intn(len(d.Terms) - 1)
		ph := d.Terms[i : i+2]
		s := NewScorer(FromGlobal(view.LocalStats(ph)))
		for _, k := range []int{1, 10, 100} {
			want, _ := EvaluatePhrase(survivors, s, ph, k)
			got, _ := EvaluateViewPhrase(view, s, ph, k)
			if (len(want) > 0 || len(got) > 0) && !reflect.DeepEqual(want, got) {
				t.Fatalf("phrase k=%d %v:\nsurvivors  %v\ntombstoned %v", k, ph, want, got)
			}
			if k == 1 && len(want) > 0 {
				matched++
			}
		}
	}
	if matched < 100 {
		t.Fatalf("only %d of 120 sampled phrases match a surviving document", matched)
	}
}

// TestViewDynamicConcurrentReadersAndWriter ranks SegmentWriter views
// (sealed segments plus the lazily indexed tail) while a writer
// streams documents in: every answer must be ordered and duplicate-free
// (exercised under -race by CI).
func TestViewDynamicConcurrentReadersAndWriter(t *testing.T) {
	d := index.NewSegmentWriter(index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3}), 8)
	q := []string{"shared"}
	search := func(k int) []Result {
		v := d.View()
		rs, _ := EvaluateView(v, NewScorer(FromGlobal(v.LocalStats(q))), q, k, PruneMaxScore, 0)
		return rs
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 400; i++ {
			if err := d.AddDocument(i, []string{"shared", fmt.Sprintf("t%d", i%50)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				rs := search(10)
				seen := map[int]bool{}
				for i, r := range rs {
					if seen[r.Doc] {
						t.Errorf("doc %d ranked twice in one answer", r.Doc)
						return
					}
					seen[r.Doc] = true
					if i > 0 && rs[i-1].Score < r.Score {
						t.Error("unsorted results under concurrency")
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := len(search(1000)); got != 400 {
		t.Fatalf("search finds %d docs, want 400", got)
	}
}
