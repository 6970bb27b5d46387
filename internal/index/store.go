package index

import (
	"fmt"
	"maps"
	"slices"
	"sync"
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
// atomically swapped Manifest. Its one mutator is the SegmentWriter
// over it: the writer applies sealed segments and tombstone deletes,
// and the merge policy compacts segments inline, in the seal that sets
// the cascade off, so merge timing is a pure function of the ingest
// order, which virtual-time replays require.
//
// Concurrency contract: any number of goroutines may call Manifest,
// Stats, and the Manifest's read methods at any time. The mutators
// (apply, delete, compact) run under the writer's lock, one at a time.
type SegmentStore struct {
	opts Options
	pol  MergePolicy

	// mu guards only the manifest pointer and the counters; it is held
	// for pointer swaps, never across index builds.
	mu    sync.RWMutex
	man   *Manifest
	stats SegmentStats

	// onChange holds the hooks result caches register, so an index
	// update invalidates their entries (generation bump) without the
	// index knowing about caching.
	hookMu   sync.Mutex
	onChange []func()
}

// NewSegmentStore creates an empty store.
func NewSegmentStore(opts Options, pol MergePolicy) *SegmentStore {
	return &SegmentStore{opts: opts, pol: pol.normalized(), man: emptyManifest()}
}

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

// OnChange registers fn to run once per writer call that changed the
// store's manifest (a seal with its merge cascade, a tombstone delete,
// a compaction), after the writer has published the new state. Hooks
// run on the writer's goroutine with its lock held, so they must be
// fast and non-blocking; the intended use is bumping a result cache's
// generation counter.
func (s *SegmentStore) OnChange(fn func()) {
	s.hookMu.Lock()
	s.onChange = append(s.onChange, fn)
	s.hookMu.Unlock()
}

// notify runs the registered hooks. Callers must hold none of the
// store's locks — a hook that queries the index back would deadlock
// otherwise.
func (s *SegmentStore) notify() {
	s.hookMu.Lock()
	fns := s.onChange
	s.hookMu.Unlock()
	for _, fn := range fns {
		fn()
	}
}

// apply publishes seg as the newest segment and runs the merge
// cascade. It rejects segments holding a document already resident in
// the store — cross-segment duplicates would corrupt scoring, and
// SegmentWriter dedupes before sealing, so a duplicate here is a
// pipeline bug.
func (s *SegmentStore) apply(seg *Index) error {
	man := s.Manifest()
	for doc := int32(0); doc < int32(seg.NumDocs()); doc++ {
		if ext := seg.ExtID(doc); man.Contains(ext) {
			return fmt.Errorf("index: segment holds document %d already resident in the store", ext)
		}
	}
	s.mu.Lock()
	s.man = &Manifest{gen: man.gen + 1, segments: append(slices.Clip(man.segments), seg), deleted: man.deleted}
	s.stats.Applied++
	s.mu.Unlock()
	s.maintain()
	return nil
}

// delete tombstones ext. It reports whether the document was resident
// and not already tombstoned; the document disappears from searches at
// the very next Manifest call and is physically dropped by the next
// merge touching its segment.
func (s *SegmentStore) delete(ext int) bool {
	man := s.Manifest()
	if !man.Contains(ext) || man.Deleted(ext) {
		return false
	}
	del := maps.Clone(man.deleted)
	del[ext] = true
	s.mu.Lock()
	s.man = &Manifest{gen: man.gen + 1, segments: man.segments, deleted: del}
	s.mu.Unlock()
	return true
}

// maintain runs the geometric merge cascade until the policy is
// satisfied, building each merged segment off-lock — readers keep
// searching the pre-merge manifest — and swapping it in under a short
// write lock. The inputs are always the last two segments of the
// manifest it read, which is still the current one: no other mutator
// runs meanwhile.
func (s *SegmentStore) maintain() {
	for {
		man := s.Manifest()
		n := len(man.segments)
		if n < 2 || man.segments[n-2].NumDocs() >= s.pol.Radix*man.segments[n-1].NumDocs() {
			return
		}
		merged, dropped := mergeSegments(s.opts, man.segments[n-2:], man.deleted)
		segs := append(slices.Clip(man.segments[:n-2]), merged)
		del := man.deleted
		if len(dropped) > 0 {
			del = maps.Clone(man.deleted)
			for _, ext := range dropped {
				delete(del, ext)
			}
		}
		s.mu.Lock()
		s.man = &Manifest{gen: man.gen + 1, segments: segs, deleted: del}
		s.stats.Merges++
		s.stats.MergedDocs += merged.NumDocs()
		s.stats.TombstonesDropped += len(dropped)
		s.mu.Unlock()
	}
}

// compact merges every segment into one (dropping all tombstones),
// publishes the single-segment manifest, and returns the merged index —
// the end-of-stream step that turns a streaming store into the
// immutable artifact the offline pipeline produces.
func (s *SegmentStore) compact() *Index {
	man := s.Manifest()
	if len(man.segments) == 0 {
		return NewBuilder(s.opts).BuildParallel(1)
	}
	merged, dropped := mergeSegments(s.opts, man.segments, man.deleted)
	s.mu.Lock()
	s.man = &Manifest{gen: man.gen + 1, segments: []*Index{merged}, deleted: make(map[int]bool)}
	if len(man.segments) > 1 {
		s.stats.Merges++
		s.stats.MergedDocs += merged.NumDocs()
	}
	s.stats.TombstonesDropped += len(dropped)
	s.mu.Unlock()
	return merged
}

// mergeSegments merges parts (in segment order) into one fresh segment
// without the tombstoned documents, returning it plus the external IDs
// physically dropped.
func mergeSegments(opts Options, parts []*Index, deleted map[int]bool) (*Index, []int) {
	merged, dropped, err := mergeParts(opts, parts, byArrival, deleted, 1)
	if err != nil {
		// apply rejects cross-segment duplicates, so this is unreachable
		// without a corrupted manifest.
		panic(err)
	}
	return merged, dropped
}
