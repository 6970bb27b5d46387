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

func TestDynamicSearchMatchesStatic(t *testing.T) {
	docs := dynDocs(300)
	d := NewDynamic(DefaultOptions(), 32, 3)
	b := NewBuilder(DefaultOptions())
	for _, doc := range docs {
		if err := d.Add(doc.Ext, doc.Terms); err != nil {
			t.Fatal(err)
		}
		b.AddDocument(doc.Ext, doc.Terms)
	}
	static := MustBuild(b)
	if d.NumDocs() != static.NumDocs() {
		t.Fatalf("dynamic has %d docs, static %d", d.NumDocs(), static.NumDocs())
	}
	// The dynamic view (segments + buffer) must hold the same documents
	// as the static index for single-term queries.
	for _, term := range []string{"alpha", "kappa", "omicron"} {
		dres := liveMatches(d.View(), []string{term})
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
	d := NewDynamic(DefaultOptions(), 16, 3)
	for _, doc := range docs {
		if err := d.Add(doc.Ext, doc.Terms); err != nil {
			t.Fatal(err)
		}
	}
	st := d.Store().Stats()
	if st.Applied == 0 || st.Merges == 0 {
		t.Fatalf("no maintenance activity: %+v", st)
	}
	// Geometric invariant: segment count stays logarithmic (here: small).
	if d.Segments() > 8 {
		t.Fatalf("%d segments for 500 docs with radix 3; cascade not merging", d.Segments())
	}
}

func TestDynamicDelete(t *testing.T) {
	d := NewDynamic(DefaultOptions(), 4, 3)
	for i := 0; i < 20; i++ {
		if err := d.Add(i, []string{"zz", fmt.Sprintf("unique%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	before := len(liveMatches(d.View(), []string{"zz"}))
	if before != 20 {
		t.Fatalf("found %d docs before delete", before)
	}
	d.Delete(5)  // in a segment by now
	d.Delete(19) // most recent: likely in buffer
	after := liveMatches(d.View(), []string{"zz"})
	if len(after) != 18 {
		t.Fatalf("found %d docs after deleting 2", len(after))
	}
	for _, ext := range after {
		if ext == 5 || ext == 19 {
			t.Fatalf("deleted doc %d still returned", ext)
		}
	}
	if d.NumDocs() != 18 {
		t.Fatalf("NumDocs = %d, want 18", d.NumDocs())
	}
}

func TestDynamicTombstonesCompactedOnMerge(t *testing.T) {
	d := NewDynamic(DefaultOptions(), 4, 2)
	for i := 0; i < 8; i++ {
		if err := d.Add(i, []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	d.Delete(1)
	// Force enough flush/merge traffic to compact the tombstone away.
	for i := 8; i < 40; i++ {
		if err := d.Add(i, []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	d.Flush()
	if got := len(liveMatches(d.View(), []string{"w"})); got != 39 {
		t.Fatalf("found %d docs, want 39", got)
	}
}

func TestDynamicDuplicateRejected(t *testing.T) {
	d := NewDynamic(DefaultOptions(), 4, 3)
	if err := d.Add(1, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := d.Add(1, []string{"b"}); err == nil {
		t.Fatal("duplicate in buffer accepted")
	}
	d.Flush()
	if err := d.Add(1, []string{"b"}); err == nil {
		t.Fatal("duplicate in segment accepted")
	}
	d.Delete(1)
	if err := d.Add(1, []string{"b"}); err == nil {
		t.Fatal("re-add of tombstoned segment-resident doc accepted")
	}
}

func TestDynamicConcurrentReadersAndWriter(t *testing.T) {
	d := NewDynamic(DefaultOptions(), 8, 3)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// One writer streaming documents.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 400; i++ {
			if err := d.Add(i, []string{"shared", fmt.Sprintf("t%d", i%50)}); err != nil {
				t.Error(err)
				return
			}
		}
		close(stop)
	}()
	// Several readers querying concurrently.
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
				if ext := firstRepeat(liveMatches(d.View(), []string{"shared"})); ext >= 0 {
					t.Errorf("doc %d resident twice in one view under concurrency", ext)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := d.NumDocs(); got != 400 {
		t.Fatalf("NumDocs = %d after concurrent load, want 400", got)
	}
	if got := len(liveMatches(d.View(), []string{"shared"})); got != 400 {
		t.Fatalf("search finds %d docs, want 400", got)
	}
}

func TestDynamicEmptySearch(t *testing.T) {
	d := NewDynamic(DefaultOptions(), 4, 3)
	if exts := liveMatches(d.View(), []string{"x"}); len(exts) != 0 {
		t.Fatalf("empty dynamic index returned %v", exts)
	}
}

func TestDynamicOnChangeHooks(t *testing.T) {
	d := NewDynamic(DefaultOptions(), 4, 3)
	var mu sync.Mutex
	fired := 0
	d.OnChange(func() { mu.Lock(); fired++; mu.Unlock() })
	if err := d.Add(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("fired = %d after Add, want 1", fired)
	}
	d.Delete(1)
	if fired != 2 {
		t.Fatalf("fired = %d after Delete, want 2", fired)
	}
	d.Delete(99) // no-op delete must not fire
	if fired != 2 {
		t.Fatalf("fired = %d after no-op Delete, want 2", fired)
	}
	d.Flush() // empty buffer: no-op
	if fired != 2 {
		t.Fatalf("fired = %d after empty Flush, want 2", fired)
	}
	if err := d.Add(2, []string{"c"}); err != nil {
		t.Fatal(err)
	}
	d.Flush()
	if fired != 4 {
		t.Fatalf("fired = %d after Add+Flush, want 4", fired)
	}
	// A hook that queries the index back must not deadlock (hooks run
	// outside the write lock).
	d.OnChange(func() { _ = d.NumDocs() })
	if err := d.Add(3, []string{"d"}); err != nil {
		t.Fatal(err)
	}
}
