package index

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
)

func dynDocs(n int) []Doc {
	rng := rand.New(rand.NewSource(31))
	return randomDocs(rng, n, 30)
}

// newWriter is the dynamic index of these tests: a writer sealing every
// segDocs documents into its own store.
func newWriter(segDocs, radix int) (*SegmentWriter, *SegmentStore) {
	s := NewSegmentStore(DefaultOptions(), MergePolicy{Radix: radix})
	return NewSegmentWriter(s, segDocs), s
}

func TestDynamicSearchMatchesStatic(t *testing.T) {
	docs := dynDocs(300)
	w, _ := newWriter(32, 3)
	b := NewBuilder(DefaultOptions())
	for _, doc := range docs {
		if err := w.AddDocument(doc.Ext, doc.Terms); err != nil {
			t.Fatal(err)
		}
		b.AddDocument(doc.Ext, doc.Terms)
	}
	static := MustBuild(b)
	if w.View().NumDocs() != static.NumDocs() {
		t.Fatalf("dynamic has %d docs, static %d", w.View().NumDocs(), static.NumDocs())
	}
	// The dynamic view (segments + tail) must hold the same documents
	// as the static index for single-term queries.
	for _, term := range []string{"alpha", "kappa", "omicron"} {
		dres := liveMatches(w.View(), []string{term})
		it := static.Postings(term)
		want := 0
		if it != nil {
			want = it.Count()
		}
		if len(dres) != want {
			t.Fatalf("term %q: dynamic found %d docs, static has %d postings", term, len(dres), want)
		}
	}
}

func TestDynamicFlushAndMergeKeepSegmentsLogarithmic(t *testing.T) {
	docs := dynDocs(500)
	w, s := newWriter(16, 3)
	for _, doc := range docs {
		if err := w.AddDocument(doc.Ext, doc.Terms); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.Applied == 0 || st.Merges == 0 {
		t.Fatalf("no maintenance activity: %+v", st)
	}
	// Geometric invariant: segment count stays logarithmic (here: small).
	if st.Segments > 8 {
		t.Fatalf("%d segments for 500 docs with radix 3; cascade not merging", st.Segments)
	}
}

// TestDynamicDelete deletes one of six documents — 0-3 sealed, 4 and 5
// still in the tail — and checks both read views after the next Cut
// (which sets off no merge at radix 2). A buffered delete used to be
// lost: the store did not know the document yet and the Cut published
// it.
func TestDynamicDelete(t *testing.T) {
	for _, tc := range []struct {
		name    string
		prior   bool // ext was deleted once already
		ext     int
		deleted bool // Delete's answer
		live    int  // documents left
		readd   bool // ext may be added again straight away
	}{
		{"buffered", false, 5, true, 5, true},
		{"sealed", false, 2, true, 5, false},
		{"tombstoned resident", true, 2, false, 5, false},
		{"unknown", false, 99, false, 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, s := newWriter(4, 2)
			for i := 0; i < 6; i++ {
				if err := w.AddDocument(i, []string{"zz", fmt.Sprintf("unique%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			if tc.prior && !w.Delete(tc.ext) {
				t.Fatalf("first Delete(%d) found nothing", tc.ext)
			}
			if got := w.Delete(tc.ext); got != tc.deleted {
				t.Fatalf("Delete(%d) = %v, want %v", tc.ext, got, tc.deleted)
			}
			if got := liveMatches(w.View(), []string{"zz"}); len(got) != tc.live {
				t.Fatalf("View holds %v before the Cut, want %d docs", got, tc.live)
			}
			if err := w.Cut(); err != nil {
				t.Fatal(err)
			}
			for name, v := range map[string]*Manifest{"View": w.View(), "Manifest": s.Manifest()} {
				got := liveMatches(v, []string{"zz"})
				if len(got) != tc.live || v.NumDocs() != tc.live {
					t.Fatalf("%s holds %v (NumDocs %d), want %d docs", name, got, v.NumDocs(), tc.live)
				}
				for _, ext := range got {
					if ext == tc.ext {
						t.Fatalf("%s still returns deleted doc %d", name, ext)
					}
				}
			}
			err := w.AddDocument(tc.ext, []string{"zz"})
			if (err == nil) != tc.readd {
				t.Fatalf("re-add of %d: err = %v, want accepted = %v", tc.ext, err, tc.readd)
			}
			if tc.readd {
				return
			}
			// The tombstoned copy is still resident; a merge drops it.
			if _, err := w.Build(); err != nil {
				t.Fatal(err)
			}
			if err := w.AddDocument(tc.ext, []string{"zz"}); err != nil {
				t.Fatalf("re-add of %d after compaction: %v", tc.ext, err)
			}
		})
	}
}

func TestDynamicTombstonesCompactedOnMerge(t *testing.T) {
	w, s := newWriter(4, 2)
	for i := 0; i < 8; i++ {
		if err := w.AddDocument(i, []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	w.Delete(1)
	// Force enough seal/merge traffic to compact the tombstone away.
	for i := 8; i < 40; i++ {
		if err := w.AddDocument(i, []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Cut(); err != nil {
		t.Fatal(err)
	}
	if got := len(liveMatches(w.View(), []string{"w"})); got != 39 {
		t.Fatalf("found %d docs, want 39", got)
	}
	if st := s.Stats(); st.TombstonesDropped != 1 || s.Manifest().Tombstones() != 0 {
		t.Fatalf("tombstone not compacted away: %+v", st)
	}
}

func TestDynamicDuplicateRejected(t *testing.T) {
	w, _ := newWriter(4, 3)
	if err := w.AddDocument(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDocument(1, []string{"b"}); err == nil {
		t.Fatal("duplicate in tail accepted")
	}
	if err := w.Cut(); err != nil {
		t.Fatal(err)
	}
	if err := w.AddDocument(1, []string{"b"}); err == nil {
		t.Fatal("duplicate in segment accepted")
	}
	w.Delete(1)
	if err := w.AddDocument(1, []string{"b"}); err == nil {
		t.Fatal("re-add of tombstoned segment-resident doc accepted")
	}
}

// TestDynamicConcurrentReadersAndWriter streams adds through a tail
// small enough to force seals and merge cascades while four readers
// loop on View. Nothing is deleted, so every document a reader has once
// seen must be in every later view it takes, exactly once: a seal may
// leave a document neither in both the tail and a segment nor, for a
// moment, in neither.
func TestDynamicConcurrentReadersAndWriter(t *testing.T) {
	w, _ := newWriter(8, 3)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One writer streaming documents.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(stop)
		for i := 0; i < 400; i++ {
			if err := w.AddDocument(i, []string{"shared", fmt.Sprintf("t%d", i%50)}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	// Several readers querying concurrently.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			seen := 0 // size of the previous view
			for {
				select {
				case <-stop:
					return
				default:
				}
				// Documents arrive in ID order, so a view is a prefix
				// 0..n-1 of them and never shorter than the one before.
				cur := liveMatches(w.View(), []string{"shared"})
				for i, ext := range cur {
					if ext != i {
						t.Errorf("view of %d docs holds doc %d at rank %d: a document is missing or resident twice", len(cur), ext, i)
						return
					}
				}
				if len(cur) < seen {
					t.Errorf("view shrank from %d to %d docs", seen, len(cur))
					return
				}
				seen = len(cur)
			}
		}()
	}
	wg.Wait()
	if got := w.View().NumDocs(); got != 400 {
		t.Fatalf("NumDocs = %d after concurrent load, want 400", got)
	}
	if got := len(liveMatches(w.View(), []string{"shared"})); got != 400 {
		t.Fatalf("search finds %d docs, want 400", got)
	}
}

func TestDynamicEmptySearch(t *testing.T) {
	w, _ := newWriter(4, 3)
	if exts := liveMatches(w.View(), []string{"x"}); len(exts) != 0 {
		t.Fatalf("empty dynamic index returned %v", exts)
	}
}
