package index

import (
	"fmt"
	"sync"
)

// Dynamic is an online-maintained index for collections whose updates
// are too frequent for rebuild-from-scratch — the paper's news/blogs
// case (§4, Communication): "there is usually some kind of online index
// maintenance strategy. This dynamic index structure constrains the
// capacity and the response time of the system since the update
// operation usually requires locking the index."
//
// Structure: newly added documents accumulate in an in-memory buffer
// that readers index as a throwaway segment (View); when it fills it is
// sealed into an immutable segment of a SegmentStore, whose tiered size-ratio
// policy merges segments geometrically (Lester, Moffat & Zobel —
// reference [15] of the paper), so there are at most O(log n) segments
// and each document is re-merged O(log n) times.
//
// Unlike the paper's pessimistic locking story, readers here never wait
// for maintenance: every mutation publishes a fresh immutable snapshot
// (buffer + segment manifest) behind one pointer, segment builds and
// merges run with no lock held, and a query evaluates entirely against
// the View it grabbed. The historical "lockout effect" experiment
// (C15) now measures the absence of reader stalls rather than their
// cost.
type Dynamic struct {
	opts      Options
	bufferCap int

	store *SegmentStore

	// maint serializes mutators (Add, Delete, Flush, Build). Readers
	// never take it.
	maint    sync.Mutex
	bufByExt map[int]bool // guarded by maint

	// mu guards only the snapshot pointer; it is held for pointer swaps,
	// never across builds or merges.
	mu   sync.RWMutex
	snap *dynSnapshot

	// hooks run after every completed mutation, outside all locks.
	hooks
}

// dynSnapshot is one immutable published view: the unflushed buffer
// plus the segment manifest, swapped together so a query can never see
// a document both in a fresh segment and still in the buffer.
type dynSnapshot struct {
	buffer []Doc
	man    *Manifest

	// view is man plus the buffer indexed as one more segment, built by
	// the first View call on this snapshot.
	viewOnce sync.Once
	view     *Manifest
}

// NewDynamic creates a dynamic index sealing a segment every bufferCap
// documents and merging segments with the given radix (>= 2).
func NewDynamic(opts Options, bufferCap, radix int) *Dynamic {
	if bufferCap < 1 {
		bufferCap = 64
	}
	store := NewSegmentStore(opts, MergePolicy{Radix: radix})
	return &Dynamic{
		opts:      opts,
		bufferCap: bufferCap,
		store:     store,
		bufByExt:  make(map[int]bool),
		snap:      &dynSnapshot{man: store.Manifest()},
	}
}

// Store exposes the underlying segment store (manifest snapshots, merge
// statistics). Structural mutation must keep going through the Dynamic.
func (d *Dynamic) Store() *SegmentStore { return d.store }

// snapshot returns the current published view.
func (d *Dynamic) snapshot() *dynSnapshot {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.snap
}

// publish swaps in a new view.
func (d *Dynamic) publish(s *dynSnapshot) {
	d.mu.Lock()
	d.snap = s
	d.mu.Unlock()
}

// Add indexes a document online. Duplicate IDs are rejected; so are
// re-adds of a deleted document whose tombstoned copy still resides in a
// segment (clearing the tombstone would resurrect the stale copy —
// updates are modelled as delete + add under a fresh ID, the common
// practice for immutable-segment indexes).
func (d *Dynamic) Add(ext int, terms []string) error {
	d.maint.Lock()
	snap := d.snapshot()
	if d.bufByExt[ext] {
		d.maint.Unlock()
		return fmt.Errorf("index: document %d already present", ext)
	}
	if err := snap.man.admit(ext); err != nil {
		d.maint.Unlock()
		return err
	}
	buf := make([]Doc, 0, len(snap.buffer)+1)
	buf = append(buf, snap.buffer...)
	buf = append(buf, Doc{Ext: ext, Terms: terms})
	d.bufByExt[ext] = true
	if len(buf) >= d.bufferCap {
		d.sealBuffer(buf)
	} else {
		d.publish(&dynSnapshot{buffer: buf, man: snap.man})
	}
	d.maint.Unlock()
	d.notify()
	return nil
}

// Delete tombstones a document; it disappears from searches immediately
// and is physically dropped at the next merge touching its segment.
func (d *Dynamic) Delete(ext int) {
	d.maint.Lock()
	snap := d.snapshot()
	removed := false
	if d.bufByExt[ext] {
		buf := make([]Doc, 0, len(snap.buffer)-1)
		for _, doc := range snap.buffer {
			if doc.Ext != ext {
				buf = append(buf, doc)
			}
		}
		delete(d.bufByExt, ext)
		d.publish(&dynSnapshot{buffer: buf, man: snap.man})
		removed = true
	} else if d.store.Delete(ext) {
		d.publish(&dynSnapshot{buffer: snap.buffer, man: d.store.Manifest()})
		removed = true
	}
	d.maint.Unlock()
	if removed {
		d.notify()
	}
}

// Flush forces the buffer into a segment (e.g. before serving a
// freshness-critical query).
func (d *Dynamic) Flush() {
	d.maint.Lock()
	snap := d.snapshot()
	flushed := len(snap.buffer) > 0
	if flushed {
		d.sealBuffer(snap.buffer)
	}
	d.maint.Unlock()
	if flushed {
		d.notify()
	}
}

// sealBuffer builds a segment from buf, applies it to the store (which
// runs the merge cascade), and publishes the post-flush snapshot.
// Caller holds d.maint — but NOT d.mu, so concurrent searches proceed
// against the pre-flush snapshot for the whole build and swap in one
// pointer move at the end. This is the off-lock merge the PR 5 audit
// flagged the old implementation for: the write lock used to be held
// across the entire build-and-merge cascade.
func (d *Dynamic) sealBuffer(buf []Doc) {
	if err := d.store.Apply(indexDocs(d.opts, buf)); err != nil {
		// Add dedupes against the store, so this is unreachable.
		panic(err)
	}
	d.publish(&dynSnapshot{man: d.store.Manifest()})
	for _, doc := range buf {
		delete(d.bufByExt, doc.Ext)
	}
}

// indexDocs indexes buffered documents as one immutable segment.
func indexDocs(opts Options, buf []Doc) *Index {
	b := NewBuilder(opts)
	for _, doc := range buf {
		if err := b.AddDocument(doc.Ext, doc.Terms); err != nil {
			// Add dedupes against the buffer, so this is unreachable.
			panic(err)
		}
	}
	return b.BuildParallel(1)
}

// Segments returns the current number of sealed segments.
func (d *Dynamic) Segments() int {
	return d.snapshot().man.NumSegments()
}

// NumDocs returns the number of live documents (buffer + segments −
// tombstones).
func (d *Dynamic) NumDocs() int {
	s := d.snapshot()
	return len(s.buffer) + s.man.NumDocs()
}

// AddDocument implements Builder (it is Add under the uniform
// construction-surface name).
func (d *Dynamic) AddDocument(ext int, terms []string) error {
	return d.Add(ext, terms)
}

// Build implements Builder: the end-of-stream handoff that seals the
// buffer, compacts every segment into one (dropping tombstones), and
// returns the immutable result. The Dynamic remains usable afterwards —
// the compacted segment stays resident as its single segment.
func (d *Dynamic) Build() (*Index, error) {
	d.Flush()
	d.maint.Lock()
	ix, err := d.store.Compact()
	if err == nil {
		d.publish(&dynSnapshot{man: d.store.Manifest()})
	}
	d.maint.Unlock()
	d.notify()
	return ix, err
}

// View returns the current snapshot as a partition view for
// internal/rank: the store's manifest with the unflushed buffer indexed
// as one more segment. The buffer segment is built at most once per
// published snapshot, by the first reader that asks and with no index
// lock held; a concurrent flush, merge, or delete swaps the snapshot
// pointer but never mutates a view already handed out.
func (d *Dynamic) View() *Manifest {
	s := d.snapshot()
	s.viewOnce.Do(func() {
		s.view = s.man
		if len(s.buffer) == 0 {
			return
		}
		segs := append(append([]*Index(nil), s.man.segments...), indexDocs(d.opts, s.buffer))
		s.view = &Manifest{gen: s.man.gen, segments: segs, deleted: s.man.deleted}
	})
	return s.view
}
