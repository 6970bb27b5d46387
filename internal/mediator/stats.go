// Package mediator implements the federated query mediator of the
// multi-site chapter (in the spirit of Dushay & French's query mediators
// for federated digital libraries): a tier between the front-end and the
// site brokers that maintains per-site collection statistics — kept
// fresh from the live system via the segment stores' change hooks, not
// offline snapshots — and runs collection selection per query to decide
// which sites the query touches, with full fan-out as the
// low-confidence and fault fallback.
package mediator

import (
	"dwr/internal/index"
	"dwr/internal/qproc"
)

// StatsSource yields one site's current collection statistics: document
// counts, lengths, and document frequencies — the selector's food.
// Sources whose underlying collection mutates report staleness through
// OnChange so the mediator re-collects lazily, before the next decision
// that needs them.
type StatsSource interface {
	// Collect returns a snapshot of the site's statistics. It must be
	// safe to call concurrently with writes to the underlying
	// collection (all provided sources snapshot immutable state).
	Collect() index.Stats
	// OnChange registers fn to be called after any mutation that makes
	// a previous Collect stale. Sources over immutable collections
	// never call fn.
	OnChange(fn func())
}

// EngineSource sources a DocEngine-backed site from the engine's
// precomputed global statistics. DocEngine indexes are immutable, so
// the source never reports staleness.
type EngineSource struct {
	Eng *qproc.DocEngine
}

// Collect implements StatsSource.
func (s EngineSource) Collect() index.Stats { return s.Eng.GlobalStats() }

// OnChange implements StatsSource: the engine's indexes are immutable.
func (EngineSource) OnChange(func()) {}

// StoreSource sources a continuously indexed site (or live partition):
// statistics are aggregated from the store's current manifest, and the
// store's change hook marks them stale after every flush, merge, or
// delete — the dynamic index keeps the mediator's view of the site
// current, the way it already keeps the result cache honest. Tombstoned
// documents still count toward DF/CF/TotalLen until a merge reclaims
// them, making the numbers safe upper bounds for selection.
type StoreSource struct {
	Store *index.SegmentStore
}

// Collect implements StatsSource.
func (s StoreSource) Collect() index.Stats { return s.Store.Manifest().LocalStats(nil) }

// OnChange implements StatsSource.
func (s StoreSource) OnChange(fn func()) { s.Store.OnChange(fn) }
