package index

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// SegmentWriter is the one mutator of a SegmentStore — the paper's
// online index maintenance (§4), where "the update operation usually
// requires locking the index", without the lockout. Documents
// accumulate in an in-memory tail and are inverted and sealed into an
// immutable segment every segDocs documents (or on Cut/Build); the
// seal then runs the store's merge cascade, which compacts segments
// geometrically (Lester, Moffat & Zobel — reference [15] of the paper).
//
// A reader picks its view by the method it calls. store.Manifest() is
// the sealed segments only: the gap between fetch and seal is exactly
// the freshness lag dwrbench -run fresh measures. View() adds the
// unsealed tail, so an added document is searchable (and a deleted one
// gone) at once.
//
// Mutators (AddDocument, Delete, Cut, Build) take the writer's lock,
// which is held from a seal through the merge cascade or compaction it
// sets off, so they may come from any goroutine. View never takes it:
// every mutation ends by publishing an immutable {tail, manifest}
// snapshot behind one pointer, and a query evaluates entirely against
// the snapshot it loaded. A call that changed the store's manifest then
// fires the store's OnChange hooks once, with the writer's lock held: a
// hook may read the store or call View, nothing else of the writer.
type SegmentWriter struct {
	store   *SegmentStore
	segDocs int

	mu     sync.Mutex
	tail   []Doc        // the unsealed documents, in arrival order
	inTail map[int]bool // their IDs

	snap atomic.Pointer[writerSnap]
}

// writerSnap is one published state: the tail and the manifest swapped
// together, so no view holds a document both in a fresh segment and
// still in the tail, or in neither. tail is shared with the writer,
// which only ever appends behind it or starts a new slice.
type writerSnap struct {
	tail []Doc
	man  *Manifest

	// view is man plus the tail indexed as one more segment, built by
	// the first View call on this snapshot.
	once sync.Once
	view *Manifest
}

// NewSegmentWriter creates a writer sealing a segment into store every
// segDocs documents (<= 0 defaults to 512).
func NewSegmentWriter(store *SegmentStore, segDocs int) *SegmentWriter {
	if segDocs <= 0 {
		segDocs = 512
	}
	w := &SegmentWriter{store: store, segDocs: segDocs, inTail: make(map[int]bool)}
	w.snap.Store(&writerSnap{man: store.Manifest()})
	return w
}

// publish makes the writer's current tail and the store's current
// manifest the state View serves, then fires the store's hooks if the
// manifest moved since the last publish. Caller holds w.mu, so the
// manifest holds every sealed document and none of the tail's.
func (w *SegmentWriter) publish() {
	man := w.store.Manifest()
	if w.snap.Swap(&writerSnap{tail: w.tail, man: man}).man != man {
		w.store.notify()
	}
}

// AddDocument buffers one tokenized document, sealing a segment when
// the tail reaches the writer's segment size. terms is kept until that
// seal and must not be modified. Documents already in the tail or
// resident in the store (tombstoned or not) are rejected: updates are
// modelled as delete + add under a fresh ID, as everywhere in the
// immutable-segment design.
func (w *SegmentWriter) AddDocument(ext int, terms []string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.store.Manifest().admit(ext); err != nil {
		return err
	}
	if w.inTail[ext] {
		return fmt.Errorf("index: document %d already present", ext)
	}
	w.tail = append(w.tail, Doc{Ext: ext, Terms: terms})
	w.inTail[ext] = true
	var err error
	if len(w.tail) >= w.segDocs {
		err = w.cut()
	}
	w.publish()
	return err
}

// Delete removes ext and reports whether it was there to remove: a
// document still in the tail leaves it (and its ID may be added again),
// a sealed one is tombstoned. Either way it is gone from the next
// View.
func (w *SegmentWriter) Delete(ext int) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.inTail[ext] {
		// Published snapshots share w.tail: shorten a copy.
		w.tail = slices.DeleteFunc(slices.Clone(w.tail), func(d Doc) bool { return d.Ext == ext })
		delete(w.inTail, ext)
	} else if !w.store.delete(ext) {
		return false
	}
	w.publish()
	return true
}

// Cut seals the tail into the store as one segment, making its
// documents visible to store.Manifest() readers. A no-op on an empty
// tail.
func (w *SegmentWriter) Cut() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	return w.cut()
}

// cut seals the tail into the store, merge cascade included; the caller
// holds w.mu and publishes. View keeps serving the previous snapshot
// through the segment build and the cascade, until that one pointer
// store.
func (w *SegmentWriter) cut() error {
	if len(w.tail) == 0 {
		return nil
	}
	seg, err := Build(w.store.opts, w.tail)
	if err != nil {
		return err
	}
	w.tail = nil
	clear(w.inTail)
	return w.store.apply(seg)
}

// Build implements Builder: it seals the tail and compacts the store
// into one immutable index — the end-of-stream handoff that makes the
// streaming path interchangeable with the offline builders. The writer
// stays usable; the compacted index is its store's single segment.
func (w *SegmentWriter) Build() (*Index, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	defer w.publish()
	if err := w.cut(); err != nil {
		return nil, err
	}
	return w.store.compact(), nil
}

// View returns the partition view internal/rank evaluates when the tail
// must be searchable: the manifest of the writer's last mutation plus
// the tail indexed as one throwaway segment. That segment is built at
// most once per snapshot, by the first reader that asks, with no lock
// held; later mutations publish new snapshots and never touch a view
// already handed out.
func (w *SegmentWriter) View() *Manifest {
	s := w.snap.Load()
	s.once.Do(func() {
		s.view = s.man
		if len(s.tail) == 0 {
			return
		}
		tail, err := Build(w.store.opts, s.tail)
		if err != nil {
			panic(err) // AddDocument admitted each tail ID once
		}
		segs := append(slices.Clip(s.man.segments), tail)
		s.view = &Manifest{gen: s.man.gen, segments: segs, deleted: s.man.deleted}
	})
	return s.view
}
