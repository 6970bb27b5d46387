package index

import "fmt"

// Manifest is an immutable snapshot of an LSM-style segment set: the
// ordered immutable segments (oldest first), the tombstone set, and a
// generation number that increments with every published change. A
// Manifest is never mutated after publication — a reader that grabs one
// evaluates queries against a frozen, internally consistent view while
// the owning SegmentStore swaps successors in behind it. This is the
// atomicity unit of the streaming pipeline: no query ever observes a
// half-applied flush, merge, or delete, because the only shared mutable
// state is a single pointer.
//
// A Manifest is also the partition view internal/rank evaluates: its
// segments, its tombstones, and statistics and score bounds aggregated
// over both. A static Index is the one-segment, no-tombstone case
// (ViewOf).
type Manifest struct {
	gen      uint64
	segments []*Index
	deleted  map[int]bool
}

func emptyManifest() *Manifest {
	return &Manifest{deleted: make(map[int]bool)}
}

// ViewOf wraps a built index as a single-segment manifest with no
// tombstones — the partition view of a static collection.
func ViewOf(ix *Index) *Manifest {
	return &Manifest{segments: []*Index{ix}}
}

// Gen returns the manifest's generation: 0 for the empty store, +1 for
// every published segment apply, merge, delete, or compaction.
func (m *Manifest) Gen() uint64 { return m.gen }

// Segments returns the resident segments, oldest first. The slice is
// shared with the manifest and must not be modified.
func (m *Manifest) Segments() []*Index { return m.segments }

// NumSegments returns the number of resident segments.
func (m *Manifest) NumSegments() int { return len(m.segments) }

// NumDocs returns the number of live documents: resident minus
// tombstoned.
func (m *Manifest) NumDocs() int {
	n := 0
	for _, s := range m.segments {
		n += s.NumDocs()
	}
	return n - len(m.deleted)
}

// TotalLen returns the total token count across resident segments
// (tombstoned documents included until a merge reclaims them).
func (m *Manifest) TotalLen() int64 {
	var n int64
	for _, s := range m.segments {
		n += s.TotalLen()
	}
	return n
}

// Tombstones returns the number of tombstoned documents still
// physically resident in some segment (they vanish at the next merge
// that touches their segment).
func (m *Manifest) Tombstones() int { return len(m.deleted) }

// Contains reports whether ext is physically resident in some segment,
// tombstoned or not.
func (m *Manifest) Contains(ext int) bool {
	for _, s := range m.segments {
		if s.InternalID(ext) >= 0 {
			return true
		}
	}
	return false
}

// Deleted reports whether ext is tombstoned.
func (m *Manifest) Deleted(ext int) bool { return m.deleted[ext] }

// admit is the writers' residency check: nil when ext may be added, an
// error when it is resident in some segment. A tombstoned resident is
// refused too — clearing the tombstone would resurrect the stale copy,
// so updates are modelled as delete + add under a fresh ID, the common
// practice for immutable-segment indexes.
func (m *Manifest) admit(ext int) error {
	if !m.Contains(ext) {
		return nil
	}
	if m.Deleted(ext) {
		return fmt.Errorf("index: document %d is tombstoned but still resident in a segment; re-add under a new ID", ext)
	}
	return fmt.Errorf("index: document %d already present", ext)
}

// LocalStats aggregates the segments' statistics restricted to the
// given terms (nil = all terms) — Index.LocalStats for a view. NumDocs
// matches NumDocs() (tombstones subtracted), while DF/CF/TotalLen still
// count tombstoned documents until a merge reclaims them. The manifest
// is immutable, so the call is a pure function of the snapshot.
func (m *Manifest) LocalStats(terms []string) Stats {
	parts := make([]Stats, len(m.segments))
	for i, s := range m.segments {
		parts[i] = s.LocalStats(terms)
	}
	st := MergeStats(parts...)
	st.NumDocs -= len(m.deleted)
	return st
}

// TermScoreMeta returns term's score-bound summary merged over the
// segments (MergeTermScoreMeta) — a safe bound for every resident
// posting, tombstoned or not; ok is false when no segment holds the
// term.
func (m *Manifest) TermScoreMeta(term string) (tm TermScoreMeta, ok bool) {
	for _, s := range m.segments {
		if sm, has := s.TermScoreMeta(term); has {
			if ok {
				sm = MergeTermScoreMeta(tm, sm)
			}
			tm, ok = sm, true
		}
	}
	return tm, ok
}
