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
	// configured defaults (WithDocQueryDefaults for DocEngine).
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
	// Postings aggregates the per-server posting-list caches (zero value
	// when disabled).
	Postings PostingsCacheStats
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

// QueryTopK implements Engine: one evaluation with the engine's default
// per-query options (WithDocQueryDefaults) and the given k.
func (e *DocEngine) QueryTopK(terms []string, k int) QueryResult {
	opt := e.topkOpts
	opt.K = k
	return e.Query(terms, opt)
}

// Stats implements Engine.
func (e *DocEngine) Stats() EngineStats {
	e.mu.Lock()
	st := EngineStats{Queries: e.queries, Degraded: e.degraded, Failed: e.failed, Threshold: e.tsc}
	if e.rb != nil {
		st.Faults = e.rb.snapshot()
		st.Latency = e.rb.hist
	}
	e.mu.Unlock()
	if e.rcache != nil {
		st.ResultCache = e.rcache.Stats()
	}
	st.Postings = e.PostingsCacheStats()
	return st
}

// Health implements Engine: partitions marked down (SetDown) plus
// partitions whose every replica the injector currently fails. The
// injector view is evaluated at the next query's tick, so Health answers
// "could the next query use this partition".
func (e *DocEngine) Health() Health {
	e.mu.Lock()
	h := Health{Units: e.K()}
	down := make(map[int]bool)
	for p, d := range e.downs {
		if d {
			down[p] = true
		}
	}
	tick := int64(e.queries) + 1
	e.mu.Unlock()
	if e.rb != nil && e.rb.inj != nil {
		for _, p := range e.rb.inj.DownUnits(tick, h.Units, e.rb.policy.Replicas) {
			down[p] = true
		}
	}
	for p := 0; p < h.Units; p++ {
		if down[p] {
			h.Down = append(h.Down, p)
		}
	}
	return h
}

// --- TermEngine ---

// QueryTopK implements Engine.
func (e *TermEngine) QueryTopK(terms []string, k int) QueryResult {
	return e.Query(terms, k)
}

// Stats implements Engine.
func (e *TermEngine) Stats() EngineStats {
	e.mu.Lock()
	st := EngineStats{Queries: e.queries, Degraded: e.degraded, Failed: e.failed}
	if e.rb != nil {
		st.Faults = e.rb.snapshot()
		st.Latency = e.rb.hist
	}
	e.mu.Unlock()
	if e.rcache != nil {
		st.ResultCache = e.rcache.Stats()
	}
	st.Postings = e.PostingsCacheStats()
	return st
}

// Health implements Engine: term servers whose every replica the
// injector currently fails (TermEngine has no static down-marking).
func (e *TermEngine) Health() Health {
	h := Health{Units: len(e.servers)}
	e.mu.Lock()
	tick := int64(e.queries) + 1
	e.mu.Unlock()
	if e.rb != nil && e.rb.inj != nil {
		h.Down = e.rb.inj.DownUnits(tick, len(e.servers), e.rb.policy.Replicas)
	}
	return h
}

// --- MultiSite ---

// QueryTopK implements Engine: QueryTopKWithin with no budget, so a
// deadline never changes which path a query takes.
func (m *MultiSite) QueryTopK(terms []string, k int) QueryResult {
	return m.QueryTopKWithin(terms, k, 0)
}

// K implements Engine: the number of sites.
func (m *MultiSite) K() int { return len(m.Sites) }

// Stats implements Engine: outcome counters aggregate over the site
// engines' answers plus the site-level fault path; cache stats cover the
// site engines' broker caches (the per-site WAN caches are
// cache.Cache instances without hit counters).
func (m *MultiSite) Stats() EngineStats {
	var st EngineStats
	st.Queries = int(m.ticks)
	st.Selection = m.sel
	if m.rb != nil {
		st.Faults = m.rb.snapshot()
		st.Latency = m.rb.hist
	}
	for _, s := range m.Sites {
		es := s.Engine.Stats()
		// Queries stays m.ticks: one multi-site query fans out to several
		// site engines, so summing per-site Queries would double-count.
		//dwrlint:allow statsmerge:Queries m.ticks is the authoritative query count; per-site Queries counts fan-out, not accepted queries
		st.Degraded += es.Degraded
		st.Failed += es.Failed
		st.Faults.Merge(es.Faults)
		st.Threshold.Merge(es.Threshold)
		st.Selection.Merge(es.Selection)
		st.ResultCache.Hits += es.ResultCache.Hits
		st.ResultCache.Misses += es.ResultCache.Misses
		st.ResultCache.StaleGen += es.ResultCache.StaleGen
		st.ResultCache.ExpiredTTL += es.ResultCache.ExpiredTTL
		st.Postings.Hits += es.Postings.Hits
		st.Postings.Misses += es.Postings.Misses
		st.Postings.UsedBytes += es.Postings.UsedBytes
	}
	return st
}

// Health implements Engine: sites inside an outage window at virtual
// hour Now, plus sites the injector currently fails entirely.
func (m *MultiSite) Health() Health {
	h := Health{Units: len(m.Sites)}
	down := make(map[int]bool)
	for _, s := range m.Sites {
		if !s.UpAt(m.Now) {
			down[s.ID] = true
		}
	}
	if m.rb != nil && m.rb.inj != nil {
		for _, s := range m.rb.inj.DownUnits(m.ticks+1, len(m.Sites), 1) {
			down[s] = true
		}
	}
	for s := 0; s < h.Units; s++ {
		if down[s] {
			h.Down = append(h.Down, s)
		}
	}
	return h
}
