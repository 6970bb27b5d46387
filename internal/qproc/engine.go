package qproc

import "dwr/internal/metrics"

// Engine is the uniform query surface every serving qproc engine
// implements — document-partitioned (DocEngine, LiveEngine) and
// geographically distributed (MultiSite). Callers that
// only need "top-k for these terms, plus operational visibility" can
// hold any engine behind this interface; engine-specific capabilities
// (statistics modes, collection selection, routing policies) stay on the
// concrete types.
type Engine interface {
	// QueryTopK evaluates terms and returns the top-k answer with full
	// resource accounting. Engine-specific per-query knobs take their
	// engine's configuration: MaxScore pruning with threshold sharing
	// unless WithPruning or WithThresholdSharing named another.
	QueryTopK(terms []string, k int) QueryResult
	// QueryTopKWithin is QueryTopK under a latency budget of deadlineMs
	// virtual milliseconds, the cost model's clock (<= 0 means none): an
	// answer the model puts later is dropped (Err = ErrDeadlineExceeded).
	// DocEngine bounds every partition call's retry/hedge loop by what is
	// left of it, MultiSite checks the routed answer. Its callers step
	// virtual time (server.Run, dwrbench's faults scenario).
	QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult
	// K returns the engine's unit count: partitions or sites.
	K() int
	// Stats returns cumulative operational counters.
	Stats() EngineStats
	// Health reports which units are currently unable to answer.
	Health() Health
}

// Interface conformance, checked at compile time.
var (
	_ Engine = (*DocEngine)(nil)
	_ Engine = (*MultiSite)(nil)
	_ Engine = (*LiveEngine)(nil)
)

// EngineStats is the uniform operational snapshot: query outcomes, the
// fault policy's counters, selection counters and cache effectiveness.
type EngineStats struct {
	Queries  int // queries accepted (including cache hits)
	Degraded int // answered partially (some units lost)
	Failed   int // refused entirely (fail-fast or total outage)
	// Faults are the robustness counters (zero value without
	// WithFaults).
	Faults metrics.FaultCounters
	// Selection are the federated-mediation counters: site fan-out and
	// sampled selection quality (zero value when no mediator was
	// configured).
	Selection metrics.SelectionCounters
	// ResultCache reflects the broker-level result cache (zero value
	// when disabled).
	ResultCache CacheStats
}

// Health reports unit liveness at the time of the call.
type Health struct {
	Units int   // total units (partitions / sites)
	Down  []int // units that cannot answer right now, ascending
}

// Live returns the number of units able to answer.
func (h Health) Live() int { return h.Units - len(h.Down) }

// Healthy reports whether every unit can answer.
func (h Health) Healthy() bool { return len(h.Down) == 0 }

// --- DocEngine ---

// QueryTopK implements Engine: QueryTopKWithin with no budget.
func (e *DocEngine) QueryTopK(terms []string, k int) QueryResult {
	return e.QueryTopKWithin(terms, k, 0)
}

// --- MultiSite ---

// QueryTopK implements Engine: QueryTopKWithin with no budget, so a
// deadline never changes which path a query takes.
func (m *MultiSite) QueryTopK(terms []string, k int) QueryResult {
	return m.QueryTopKWithin(terms, k, 0)
}

// K implements Engine: the number of sites.
func (m *MultiSite) K() int { return len(m.Sites) }

// Stats implements Engine: the coordinator's own query and outcome
// tally (a routed query counts once, however many site engines it
// touched) and selection counters, and the site engines' fault and
// broker-cache counters (the per-site coordinator caches keep no hit
// counters).
func (m *MultiSite) Stats() EngineStats {
	m.mu.Lock()
	st := EngineStats{Queries: m.evaluated + m.hits, Degraded: m.degraded, Failed: m.failed, Selection: m.sel}
	m.mu.Unlock()
	for _, s := range m.Sites {
		es := s.Engine.Stats()
		st.Faults.Merge(es.Faults)
		st.Selection.Merge(es.Selection)
		st.ResultCache.Hits += es.ResultCache.Hits
		st.ResultCache.Misses += es.ResultCache.Misses
		st.ResultCache.StaleGen += es.ResultCache.StaleGen
	}
	return st
}

// Health implements Engine: the sites inside an outage window at
// virtual hour Now.
func (m *MultiSite) Health() Health {
	h := Health{Units: len(m.Sites)}
	for _, s := range m.Sites {
		if !s.UpAt(m.Now) {
			h.Down = append(h.Down, s.ID)
		}
	}
	return h
}
