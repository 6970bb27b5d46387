package qproc

import (
	"fmt"

	"dwr/internal/index"
)

// LiveEngine is the document-partitioned broker for collections that
// are still being written: every partition is an index.SegmentStore
// whose segment manifest its segment writer atomically swaps (seals,
// merges, deletes) while queries are in flight. It is a DocEngine whose
// partition sources are the stores: a query takes one immutable manifest
// snapshot per partition before anything else, so no request ever
// observes a half-swapped view, aggregates statistics over exactly those
// snapshots (the two-round protocol), and evaluates them through the
// same rank evaluators, wave scheduler, fault policy (WithFaults),
// deadline (QueryTopKWithin) and result cache as a static engine. With
// no tombstones pending, its ranking is therefore bit for bit the static
// engine's over the same documents, however the stores happen to have
// cut them into segments. Each store's OnChange
// hook bumps the result cache's generation, so cached answers never
// outlive the index state they were computed from.
//
// The type exists to hide what makes no sense over mutable stores —
// PartIndex, GlobalPrecomputed statistics — not to add behaviour.
type LiveEngine struct {
	doc    *DocEngine
	stores []*index.SegmentStore
}

// NewLiveEngine builds a broker over the given per-partition segment
// stores. The stores may already be receiving writes; they keep
// receiving writes while the engine serves. Supported options:
// WithResultCache (the cache is wired to every store's
// OnChange hook), WithPruning, WithThresholdSharing, WithFaults, and the
// ambient defaults; it serves every engine's default configuration.
func NewLiveEngine(stores []*index.SegmentStore, options ...Option) (*LiveEngine, error) {
	if len(stores) == 0 {
		return nil, fmt.Errorf("qproc: NewLiveEngine needs at least one segment store")
	}
	sources := make([]func() *index.Manifest, len(stores))
	for i, s := range stores {
		sources[i] = s.Manifest
	}
	doc := newDocBroker(resolveOptions(options), sources)
	if doc.rcache != nil {
		for _, s := range stores {
			s.OnChange(doc.rcache.Invalidate)
		}
	}
	return &LiveEngine{doc: doc, stores: stores}, nil
}

// Query evaluates terms over one manifest snapshot per partition and
// returns the merged top-k with resource accounting. Safe for
// concurrent callers and concurrent with writes to the stores.
func (e *LiveEngine) Query(terms []string, k int) QueryResult { return e.doc.QueryTopK(terms, k) }

// QueryTopK implements Engine.
func (e *LiveEngine) QueryTopK(terms []string, k int) QueryResult { return e.Query(terms, k) }

// QueryTopKWithin implements Engine; see DocEngine.QueryTopKWithin.
func (e *LiveEngine) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	return e.doc.QueryTopKWithin(terms, k, deadlineMs)
}

// K implements Engine: the number of partitions (segment stores).
func (e *LiveEngine) K() int { return len(e.stores) }

// Stats implements Engine.
func (e *LiveEngine) Stats() EngineStats { return e.doc.Stats() }

// Health implements Engine: partitions marked down (SetDown) or failed
// by the injector. A partition that has not received documents yet is
// up; it answers from an empty manifest.
func (e *LiveEngine) Health() Health { return e.doc.Health() }

// NumDocs returns the total live documents across the current
// partition manifests (tombstoned documents excluded).
func (e *LiveEngine) NumDocs() int {
	n := 0
	for _, s := range e.stores {
		n += s.Manifest().NumDocs()
	}
	return n
}
