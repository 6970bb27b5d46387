package index

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

// buildSegment turns a document slice into one immutable segment.
func buildSegment(t *testing.T, docs []Doc) *Index {
	t.Helper()
	b := NewBuilder(DefaultOptions())
	for _, d := range docs {
		if err := b.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
	}
	return MustBuild(b)
}

// liveMatches is the reference read path of the index tests: it walks
// every segment's posting lists for terms and returns, ascending, the
// external IDs of the live (non-tombstoned) documents holding any of
// them. A segment contributes each of its documents once, so an ID that
// repeats is resident in two segments of one view. Ranking is
// internal/rank's business and is tested there.
func liveMatches(v *Manifest, terms []string) []int {
	var out []int
	for _, seg := range v.Segments() {
		hit := map[int32]bool{}
		for _, t := range terms {
			for it := seg.Postings(t); it != nil && it.Next(); {
				hit[it.Posting().Doc] = true
			}
		}
		for doc := range hit {
			if ext := seg.ExtID(doc); !v.Deleted(ext) {
				out = append(out, ext)
			}
		}
	}
	sort.Ints(out)
	return out
}

// firstRepeat returns an ID that occurs twice in the sorted list, or -1.
func firstRepeat(sorted []int) int {
	for i := 1; i < len(sorted); i++ {
		if sorted[i] == sorted[i-1] {
			return sorted[i]
		}
	}
	return -1
}

func TestSegmentStoreLifecycle(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	docs := randomDocs(rng, 400, 40)
	s := NewSegmentStore(DefaultOptions(), MergePolicy{Radix: 3})
	for i := 0; i < len(docs); i += 50 {
		end := i + 50
		if end > len(docs) {
			end = len(docs)
		}
		if err := s.apply(buildSegment(t, docs[i:end])); err != nil {
			t.Fatal(err)
		}
	}
	man := s.Manifest()
	if man.NumDocs() != len(docs) {
		t.Fatalf("manifest has %d docs, want %d", man.NumDocs(), len(docs))
	}
	st := s.Stats()
	if st.Applied != 8 || st.Merges == 0 {
		t.Fatalf("unexpected maintenance activity: %+v", st)
	}
	// Geometric invariant: the cascade keeps the segment count small.
	if len(man.segments) > 6 {
		t.Fatalf("%d segments for 8 applies at radix 3; cascade not merging", len(man.segments))
	}
	// compact produces the same index as a single-shot build.
	if !Equal(buildSegment(t, docs), s.compact()) {
		t.Fatal("compacted store differs from single-shot build of the same documents")
	}
}

func TestSegmentStoreDeleteAndTombstoneGC(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	docs := randomDocs(rng, 200, 40)
	s := NewSegmentStore(DefaultOptions(), MergePolicy{Radix: 3})
	for i := 0; i < len(docs); i += 40 {
		if err := s.apply(buildSegment(t, docs[i:i+40])); err != nil {
			t.Fatal(err)
		}
	}
	deleted := map[int]bool{}
	for i := 0; i < len(docs); i += 7 {
		if !s.delete(docs[i].Ext) {
			t.Fatalf("Delete(%d) found nothing", docs[i].Ext)
		}
		deleted[docs[i].Ext] = true
	}
	if s.delete(docs[0].Ext) {
		t.Fatal("second Delete of the same doc reported success")
	}
	man := s.Manifest()
	if man.NumDocs() != len(docs)-len(deleted) {
		t.Fatalf("live docs %d, want %d", man.NumDocs(), len(docs)-len(deleted))
	}
	// Tombstoned docs never surface among the live matches.
	for _, ext := range liveMatches(man, docs[0].Terms[:1]) {
		if deleted[ext] {
			t.Fatalf("tombstoned doc %d among the live matches", ext)
		}
	}
	// Compaction physically removes tombstones and clears the map.
	s.compact()
	st := s.Stats()
	if st.TombstonesDropped != len(deleted) {
		t.Fatalf("compaction dropped %d tombstones, want %d", st.TombstonesDropped, len(deleted))
	}
	if len(s.Manifest().deleted) != 0 {
		t.Fatal("tombstones survived compaction")
	}
	// A compacted-away ID can be indexed again.
	if err := s.apply(buildSegment(t, []Doc{{Ext: docs[0].Ext, Terms: docs[0].Terms}})); err != nil {
		t.Fatalf("re-adding a compacted-away doc: %v", err)
	}
}

func TestSegmentStoreRejectsCrossSegmentDuplicate(t *testing.T) {
	s := NewSegmentStore(DefaultOptions(), MergePolicy{})
	if err := s.apply(buildSegment(t, []Doc{{Ext: 1, Terms: []string{"a"}}})); err != nil {
		t.Fatal(err)
	}
	if err := s.apply(buildSegment(t, []Doc{{Ext: 1, Terms: []string{"b"}}})); err == nil {
		t.Fatal("duplicate external ID accepted across segments")
	}
}

// TestDynamicOnChangeHooks pins when a store's change hooks fire: once
// per writer call that changed the store — a seal, a seal with its
// merge, a tombstone delete, a compaction — and not for a call that
// only touched the tail or changed nothing.
func TestDynamicOnChangeHooks(t *testing.T) {
	w, s := newWriter(2, 2)
	fired := 0
	s.OnChange(func() { fired++ })
	step := func(what string, want int, op func()) {
		t.Helper()
		before := fired
		op()
		if got := fired - before; got != want {
			t.Fatalf("%s fired the hooks %d times, want %d", what, got, want)
		}
	}
	add := func(ext int) func() {
		return func() {
			if err := w.AddDocument(ext, []string{"a"}); err != nil {
				t.Error(err)
			}
		}
	}
	step("buffered add", 0, add(1))
	step("seal", 1, add(2))
	step("buffered add", 0, add(3))
	step("seal + merge", 1, add(4))
	step("delete", 1, func() { w.Delete(1) })
	step("delete of a tombstoned doc", 0, func() { w.Delete(1) })
	step("delete of an unknown doc", 0, func() { w.Delete(99) })
	step("delete of a buffered doc", 0, func() { add(5)(); w.Delete(5) })
	step("cut of an empty tail", 0, func() { w.Cut() })
	// A hook that reads the store and the writer's view back must not
	// deadlock (hooks run outside the store's locks).
	s.OnChange(func() { _ = s.Manifest().NumDocs() + s.Stats().Merges + w.View().NumDocs() })
	step("compact", 1, func() { w.Build() })
	if st := s.Stats(); st.Merges != 1 || st.TombstonesDropped != 1 {
		t.Fatalf("unexpected maintenance activity: %+v", st)
	}
}

func TestSegmentWriterStreamsToReferenceIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	docs := randomDocs(rng, 333, 40)
	s := NewSegmentStore(DefaultOptions(), MergePolicy{Radix: 3})
	w := NewSegmentWriter(s, 32)
	for _, d := range docs {
		if err := w.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
	}
	if s.Stats().Applied != len(docs)/32 {
		t.Fatalf("sealed %d segments, want %d", s.Stats().Applied, len(docs)/32)
	}
	if len(w.tail) != len(docs)%32 {
		t.Fatalf("buffered %d docs, want %d", len(w.tail), len(docs)%32)
	}
	// Buffered docs are not yet searchable — that gap is the freshness
	// lag the fresh scenario measures.
	if s.Manifest().NumDocs() != len(docs)-len(w.tail) {
		t.Fatalf("manifest has %d docs before Cut, want %d", s.Manifest().NumDocs(), len(docs)-len(w.tail))
	}
	got, err := w.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(buildSegment(t, docs), got) {
		t.Fatal("streamed segment index differs from single-shot build")
	}
}

// TestManifestSnapshotSurvivesSwaps pins the mid-swap contract: a query
// holding a manifest snapshot keeps answering from exactly that view no
// matter how many applies, deletes, and merge swaps happen meanwhile.
func TestManifestSnapshotSurvivesSwaps(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	docs := randomDocs(rng, 300, 40)
	w, s := newWriter(16, 3)
	for _, doc := range docs[:150] {
		if err := w.AddDocument(doc.Ext, doc.Terms); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Cut(); err != nil {
		t.Fatal(err)
	}
	man := s.Manifest()
	q := docs[0].Terms[:2]
	before := fmt.Sprint(liveMatches(man, q))

	// Swap storm: more adds (seals + merge cascades) and deletes.
	for _, doc := range docs[150:] {
		if err := w.AddDocument(doc.Ext, doc.Terms); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 150; i += 5 {
		w.Delete(docs[i].Ext)
	}
	after := fmt.Sprint(liveMatches(man, q))
	if before != after {
		t.Fatalf("snapshot answer changed across manifest swaps:\nbefore: %s\nafter:  %s", before, after)
	}
	if man.gen == s.Manifest().gen {
		t.Fatal("no swaps happened; the test exercised nothing")
	}
}

// TestDynamicConcurrentSearchUpdateDelete runs a deterministic
// add/delete schedule against concurrent searchers under -race. Every
// answer must be internally consistent (no duplicates, no unknown
// docs); the final state must match the schedule.
func TestDynamicConcurrentSearchUpdateDelete(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	docs := randomDocs(rng, 600, 40)
	w, _ := newWriter(16, 3)

	known := map[int]bool{}
	for _, doc := range docs {
		known[doc.Ext] = true
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := [][]string{docs[r].Terms[:1], docs[r+1].Terms[:2], docs[r+2].Terms[:1]}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				exts := liveMatches(w.View(), queries[i%len(queries)])
				for _, ext := range exts {
					if !known[ext] {
						t.Errorf("view holds unknown doc %d", ext)
						return
					}
				}
				if ext := firstRepeat(exts); ext >= 0 {
					t.Errorf("doc %d resident twice in one view", ext)
					return
				}
			}
		}(r)
	}

	liveCount := 0
	for i, doc := range docs {
		if err := w.AddDocument(doc.Ext, doc.Terms); err != nil {
			t.Error(err)
			break
		}
		liveCount++
		// Delete every 6th doc 12 adds after it arrived: the targets are
		// distinct, always resident, some still buffered and some sealed.
		if i%6 == 3 && i >= 12 {
			if !w.Delete(docs[i-12].Ext) {
				t.Errorf("Delete(%d) found nothing", docs[i-12].Ext)
			}
			liveCount--
		}
	}
	close(stop)
	wg.Wait()
	if got := w.View().NumDocs(); got != liveCount {
		t.Fatalf("final live docs %d, want %d", got, liveCount)
	}
}

// TestSegmentStoreMergesUnderReaders runs the merge cascade under
// -race: one writer seals segments, each setting off its inline merges,
// and tombstones deletes while readers take manifest snapshots and
// search them.
func TestSegmentStoreMergesUnderReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(56))
	docs := randomDocs(rng, 480, 40)
	w, s := newWriter(24, 3)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			q := docs[r].Terms[:1]
			for {
				select {
				case <-stop:
					return
				default:
				}
				// A half-swapped view would hold a merged segment beside
				// one of its inputs.
				if ext := firstRepeat(liveMatches(s.Manifest(), q)); ext >= 0 {
					t.Errorf("doc %d resident twice mid-merge", ext)
					return
				}
			}
		}(r)
	}

	deleted := 0
	for i, d := range docs {
		if err := w.AddDocument(d.Ext, d.Terms); err != nil {
			t.Error(err)
			break
		}
		if i >= 48 && i%24 == 0 && w.Delete(docs[i-48].Ext) {
			deleted++
		}
	}
	close(stop)
	wg.Wait()
	if got, want := s.Manifest().NumDocs(), len(docs)-deleted; got != want {
		t.Fatalf("final live docs %d, want %d", got, want)
	}
	if s.Stats().Merges == 0 {
		t.Fatal("the cascade performed no merges")
	}
}
