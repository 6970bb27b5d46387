package index

import (
	"fmt"
	"maps"
	"sync"

	"dwr/internal/conc"
)

// MergePolicy is the tiered size-ratio policy of a SegmentStore:
// whenever the second-newest segment holds fewer than Radix times the
// newest segment's documents, the two are merged — Lester, Moffat &
// Zobel's geometric partitioning (reference [15] of the paper), which
// bounds the store at O(log n) segments and re-merges each document
// O(log n) times.
type MergePolicy struct {
	// Radix is the size ratio between adjacent tiers (>= 2; values < 2
	// default to 3).
	Radix int
}

func (p MergePolicy) normalized() MergePolicy {
	if p.Radix < 2 {
		p.Radix = 3
	}
	return p
}

// SegmentStats summarizes a store's maintenance activity.
type SegmentStats struct {
	Applied           int    // segments applied (flushes/seals)
	Merges            int    // segment merges performed
	MergedDocs        int    // documents written by merges
	TombstonesDropped int    // tombstoned documents physically removed
	Segments          int    // segments currently resident
	Gen               uint64 // current manifest generation
}

// SegmentStore owns an LSM-style set of immutable segments behind an
// atomically swapped Manifest. Writers apply sealed segments and
// tombstone deletes; the merge policy compacts segments either inline
// (the deterministic default — merge timing is then a pure function of
// the apply/delete sequence, which virtual-time replays require) or on
// a bounded background pool (wall-clock serving, where ingest must not
// stall behind a large merge).
//
// Concurrency contract: any number of goroutines may call Manifest,
// Stats, and the Manifest's read methods at any time. Structural
// mutation (Apply, Delete, Compact) must come from one writer at a
// time (a SegmentWriter's lock sees to that); background merges
// scheduled by the store itself are internally serialized and safe
// against a concurrent writer.
type SegmentStore struct {
	opts Options
	pol  MergePolicy

	// mu guards only the manifest pointer and the counters; it is held
	// for pointer swaps, never across index builds.
	mu    sync.RWMutex
	man   *Manifest
	stats SegmentStats

	// maint serializes merge cascades (inline or background).
	maint   sync.Mutex
	pool    *conc.Pool
	pending sync.WaitGroup

	hooks
}

// NewSegmentStore creates an empty store with inline (deterministic)
// merge scheduling.
func NewSegmentStore(opts Options, pol MergePolicy) *SegmentStore {
	return &SegmentStore{opts: opts, pol: pol.normalized(), man: emptyManifest()}
}

// Background switches the store to background merge scheduling on pool:
// Apply publishes the new segment immediately and the merge cascade
// runs on a pool goroutine. Call before the first Apply. Background
// merges surrender replay determinism — merge timing (and therefore the
// exact moment tombstoned documents stop counting toward collection
// statistics) depends on the scheduler — so this mode is for wall-clock
// serving only.
func (s *SegmentStore) Background(pool *conc.Pool) { s.pool = pool }

// Manifest returns the current manifest snapshot. The snapshot is
// immutable; queries evaluated against it are unaffected by concurrent
// swaps.
func (s *SegmentStore) Manifest() *Manifest {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.man
}

// Stats returns the accumulated maintenance counters.
func (s *SegmentStore) Stats() SegmentStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := s.stats
	st.Segments = len(s.man.segments)
	st.Gen = s.man.gen
	return st
}

// hooks is the change-callback list SegmentStore embeds: result caches
// register here, so an index update invalidates their entries
// (generation bump) without the index knowing about caching.
type hooks struct {
	hookMu   sync.Mutex
	onChange []func()
}

// OnChange registers fn to run after every published manifest swap
// (apply, merge, delete, compaction). Hooks must be fast and
// non-blocking; the intended use is bumping a result cache's
// generation counter.
func (h *hooks) OnChange(fn func()) {
	h.hookMu.Lock()
	h.onChange = append(h.onChange, fn)
	h.hookMu.Unlock()
}

// notify runs the registered hooks. Callers must hold none of the
// owner's locks — a hook that queries the index back would deadlock
// otherwise.
func (h *hooks) notify() {
	h.hookMu.Lock()
	fns := h.onChange
	h.hookMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// Apply publishes seg as the newest segment and runs (or schedules) the
// merge cascade. It rejects segments holding a document already
// resident in the store — cross-segment duplicates would corrupt
// scoring, and SegmentWriter dedupes before sealing, so a duplicate
// here is a pipeline bug.
func (s *SegmentStore) Apply(seg *Index) error {
	if seg == nil || seg.NumDocs() == 0 {
		return nil
	}
	man := s.Manifest()
	for doc := int32(0); doc < int32(seg.NumDocs()); doc++ {
		if ext := seg.ExtID(doc); man.Contains(ext) {
			return fmt.Errorf("index: segment holds document %d already resident in the store", ext)
		}
	}
	s.mu.Lock()
	cur := s.man
	segs := make([]*Index, 0, len(cur.segments)+1)
	segs = append(segs, cur.segments...)
	segs = append(segs, seg)
	s.man = &Manifest{gen: cur.gen + 1, segments: segs, deleted: cur.deleted}
	s.stats.Applied++
	s.mu.Unlock()
	if s.pool != nil {
		s.pending.Add(1)
		s.pool.Submit(func() {
			defer s.pending.Done()
			if s.maintain() {
				s.notify()
			}
		})
	} else {
		s.maintain()
	}
	s.notify()
	return nil
}

// Delete tombstones ext. It reports whether the document was resident
// and not already tombstoned; the document disappears from searches at
// the very next Manifest call and is physically dropped by the next
// merge touching its segment.
func (s *SegmentStore) Delete(ext int) bool {
	man := s.Manifest()
	if !man.Contains(ext) || man.Deleted(ext) {
		return false
	}
	s.mu.Lock()
	cur := s.man
	del := maps.Clone(cur.deleted)
	del[ext] = true
	s.man = &Manifest{gen: cur.gen + 1, segments: cur.segments, deleted: del}
	s.mu.Unlock()
	s.notify()
	return true
}

// maintain runs the geometric merge cascade until the policy is
// satisfied, building each merged segment off-lock and swapping it in
// under a short write lock. It reports whether any merge happened.
// Safe against concurrent Apply/Delete: merges identify their inputs by
// segment identity at swap time, and appends only ever extend the tail
// behind them.
func (s *SegmentStore) maintain() bool {
	s.maint.Lock()
	defer s.maint.Unlock()
	did := false
	for {
		man := s.Manifest()
		n := len(man.segments)
		if n < 2 {
			return did
		}
		a, c := man.segments[n-2], man.segments[n-1]
		if a.NumDocs() >= s.pol.Radix*c.NumDocs() {
			return did
		}
		// Build the merged segment with no store lock held: readers keep
		// searching the pre-merge manifest, writers keep applying.
		merged, dropped := mergeSegments(s.opts, []*Index{a, c}, man.deleted)

		s.mu.Lock()
		cur := s.man
		i := segmentIndex(cur.segments, a)
		segs := make([]*Index, 0, len(cur.segments)-1)
		segs = append(segs, cur.segments[:i]...)
		segs = append(segs, merged)
		segs = append(segs, cur.segments[i+2:]...)
		del := cur.deleted
		if len(dropped) > 0 {
			del = maps.Clone(cur.deleted)
			for _, ext := range dropped {
				delete(del, ext)
			}
		}
		s.man = &Manifest{gen: cur.gen + 1, segments: segs, deleted: del}
		s.stats.Merges++
		s.stats.MergedDocs += merged.NumDocs()
		s.stats.TombstonesDropped += len(dropped)
		s.mu.Unlock()
		did = true
	}
}

// segmentIndex locates seg by identity. Only the maintenance path
// removes segments and it is serialized, so a merge input is always
// still present (though possibly no longer at the tail, if a writer
// applied new segments while the merge was building).
func segmentIndex(segs []*Index, seg *Index) int {
	for i, s := range segs {
		if s == seg {
			return i
		}
	}
	panic("index: merge input segment vanished from the manifest")
}

// Quiesce blocks until every scheduled background merge has finished.
// Inline-mode stores return immediately.
func (s *SegmentStore) Quiesce() { s.pending.Wait() }

// Compact merges every segment into one (dropping all tombstones),
// publishes the single-segment manifest, and returns the merged index —
// the end-of-stream step that turns a streaming store into the
// immutable artifact the offline pipeline produces.
func (s *SegmentStore) Compact() (*Index, error) {
	s.Quiesce()
	s.maint.Lock()
	defer s.maint.Unlock()
	man := s.Manifest()
	if len(man.segments) == 0 {
		return NewBuilder(s.opts).BuildParallel(1), nil
	}
	merged, dropped := mergeSegments(s.opts, man.segments, man.deleted)
	s.mu.Lock()
	cur := s.man
	s.man = &Manifest{gen: cur.gen + 1, segments: []*Index{merged}, deleted: make(map[int]bool)}
	if len(man.segments) > 1 {
		s.stats.Merges++
		s.stats.MergedDocs += merged.NumDocs()
	}
	s.stats.TombstonesDropped += len(dropped)
	s.mu.Unlock()
	s.notify()
	return merged, nil
}

// mergeSegments merges parts (in segment order) into one fresh segment
// without the tombstoned documents, returning it plus the external IDs
// physically dropped.
func mergeSegments(opts Options, parts []*Index, deleted map[int]bool) (*Index, []int) {
	merged, dropped, err := mergeParts(opts, parts, byArrival, deleted, 1)
	if err != nil {
		// Apply rejects cross-segment duplicates, so this is unreachable
		// without a corrupted manifest.
		panic(err)
	}
	return merged, dropped
}
