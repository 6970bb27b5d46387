package qproc

import "dwr/internal/metrics"

// Engine is the uniform query surface every qproc engine implements —
// document-partitioned (DocEngine), pipelined term-partitioned
// (TermEngine), and geographically distributed (MultiSite). Callers that
// only need "top-k for these terms, plus operational visibility" can
// hold any engine behind this interface; engine-specific capabilities
// (statistics modes, collection selection, routing policies) stay on the
// concrete types.
type Engine interface {
	// QueryTopK evaluates terms and returns the top-k answer with full
	// resource accounting. Engine-specific per-query knobs take their
	// engine's defaults (WithPruning, WithThresholdSharing).
	QueryTopK(terms []string, k int) QueryResult
	// K returns the engine's unit count: partitions, term servers, or
	// sites.
	K() int
	// Stats returns cumulative operational counters.
	Stats() EngineStats
	// Health reports which units are currently unable to answer.
	Health() Health
}

// Interface conformance, checked at compile time.
var (
	_ Engine = (*DocEngine)(nil)
	_ Engine = (*TermEngine)(nil)
	_ Engine = (*MultiSite)(nil)
	_ Engine = (*LiveEngine)(nil)
)

// EngineStats is the uniform operational snapshot: query outcomes, the
// fault policy's counters, cache effectiveness, and the per-unit latency
// histograms the hedging threshold is derived from.
type EngineStats struct {
	Queries  int // queries accepted (including cache hits)
	Degraded int // answered partially (some units lost)
	Failed   int // refused entirely (fail-fast or total outage)
	// Faults are the robustness counters (zero value when no fault
	// options were configured).
	Faults metrics.FaultCounters
	// Threshold are the wave-scheduler counters of queries evaluated
	// with threshold sharing (zero value when never used).
	Threshold metrics.ThresholdCounters
	// Selection are the federated-mediation counters: site fan-out and
	// sampled selection quality (zero value when no mediator was
	// configured).
	Selection metrics.SelectionCounters
	// ResultCache reflects the broker-level result cache (zero value
	// when disabled).
	ResultCache CacheStats
	// Latency holds the per-unit latency histograms of robust calls (nil
	// when no fault options were configured).
	Latency *metrics.LatencyByPart
}

// Health reports unit liveness at the time of the call.
type Health struct {
	Units int   // total units (partitions / term servers / sites)
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

// Stats implements Engine.
func (e *DocEngine) Stats() EngineStats {
	st := e.broker.Stats()
	e.mu.Lock()
	st.Threshold = e.tsc
	e.mu.Unlock()
	return st
}

// Health implements Engine: partitions marked down (SetDown) plus
// partitions whose every replica the injector currently fails.
func (e *DocEngine) Health() Health {
	e.mu.Lock()
	down := append([]bool(nil), e.downs...)
	e.mu.Unlock()
	return e.health(down)
}

// --- TermEngine ---

// QueryTopK implements Engine.
func (e *TermEngine) QueryTopK(terms []string, k int) QueryResult {
	return e.Query(terms, k)
}

// Health implements Engine: term servers whose every replica the
// injector currently fails (TermEngine has no static down-marking).
func (e *TermEngine) Health() Health { return e.health(make([]bool, e.K())) }

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
// touched) and selection counters, the site-level fault path, and the
// site engines' fault, threshold and broker-cache counters (the per-site
// WAN caches are cache.Cache instances without hit counters).
func (m *MultiSite) Stats() EngineStats {
	m.mu.Lock()
	st := EngineStats{Queries: m.evaluated + m.hits, Degraded: m.degraded, Failed: m.failed, Selection: m.sel}
	if m.rb != nil {
		st.Faults = m.rb.snapshot()
		st.Latency = m.rb.hist
	}
	m.mu.Unlock()
	for _, s := range m.Sites {
		es := s.Engine.Stats()
		st.Faults.Merge(es.Faults)
		st.Threshold.Merge(es.Threshold)
		st.Selection.Merge(es.Selection)
		st.ResultCache.Hits += es.ResultCache.Hits
		st.ResultCache.Misses += es.ResultCache.Misses
		st.ResultCache.StaleGen += es.ResultCache.StaleGen
		st.ResultCache.ExpiredTTL += es.ResultCache.ExpiredTTL
	}
	return st
}

// Health implements Engine: sites inside an outage window at virtual
// hour Now, plus sites the injector fails entirely at the next evaluated
// query's tick.
func (m *MultiSite) Health() Health {
	down := make([]bool, len(m.Sites))
	for _, s := range m.Sites {
		down[s.ID] = !s.UpAt(m.Now)
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.siteRB().health(down, int64(m.evaluated)+1)
}
