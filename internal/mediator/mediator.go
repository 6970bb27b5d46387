package mediator

import (
	"sort"
	"sync"

	"dwr/internal/index"
	"dwr/internal/qproc"
	"dwr/internal/selection"
)

// Config parameterizes a Mediator.
type Config struct {
	// SelectN is the per-query site budget: at most this many sites are
	// contacted when selection is confident. <= 0 picks max(1, N/4) for
	// N sites — a quarter of the federation.
	SelectN int
	// MinConfidence is the pruning-confidence floor: when the selection
	// score mass concentrated on the chosen subset, normalized against
	// the uniform baseline, falls below it, the query falls back to
	// full fan-out. 0 never falls back on confidence.
	MinConfidence float64
}

// DefaultConfig returns the standard mediation configuration: a
// quarter-of-the-federation budget and a modest confidence floor.
func DefaultConfig() Config {
	return Config{MinConfidence: 0.15}
}

// Mediator maintains per-site collection statistics and decides, per
// query, which sites to contact (qproc.Mediator). It is safe for
// concurrent use; decisions are deterministic for a fixed sequence of
// statistics changes.
type Mediator struct {
	cfg Config

	mu       sync.Mutex
	sources  []StatsSource
	dirty    []bool
	anyDirty bool
	sel      *selection.CORI // nil until the first refresh

	rebuilds  int
	refreshes int
}

// Interface conformance, checked at compile time.
var _ qproc.Mediator = (*Mediator)(nil)

// New builds a mediator over one StatsSource per site (position i =
// site/unit ID i). Statistics are collected lazily at the first Decide;
// sources that report changes (StoreSource) keep them fresh from then
// on.
func New(cfg Config, sources ...StatsSource) *Mediator {
	m := &Mediator{cfg: cfg, sources: sources, dirty: make([]bool, len(sources))}
	for i, src := range sources {
		i := i
		src.OnChange(func() {
			m.mu.Lock()
			m.dirty[i] = true
			m.anyDirty = true
			m.mu.Unlock()
		})
	}
	return m
}

// refresh re-collects stale site statistics and brings the selector up
// to date: built from every site's statistics the first time, updated
// in place per stale site afterwards. Called under mu.
func (m *Mediator) refresh() {
	switch {
	case m.sel == nil:
		stats := make([]index.Stats, len(m.sources))
		for i, src := range m.sources {
			stats[i] = src.Collect()
			m.dirty[i] = false
		}
		m.sel = selection.NewCORI(stats)
		m.rebuilds++
	case m.anyDirty:
		for i, src := range m.sources {
			if m.dirty[i] {
				m.sel.Update(i, src.Collect())
				m.dirty[i] = false
				m.refreshes++
			}
		}
	}
	m.anyDirty = false
}

// Decide implements qproc.Mediator: rank the up sites with the
// selector, keep the score-bearing ones under the budget, and prune
// only when the selection score mass concentrated on the chosen subset
// clears the confidence floor.
func (m *Mediator) Decide(terms []string, up []int) qproc.MediatorDecision {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.refresh()
	if len(up) <= 1 {
		return qproc.MediatorDecision{FullFanout: true}
	}
	upSet := make(map[int]bool, len(up))
	for _, s := range up {
		upSet[s] = true
	}
	// Candidates: up sites carrying any selection score, best first.
	var cand []selection.ScoredPart
	total := 0.0
	for _, sp := range m.sel.RankScored(terms) {
		if !upSet[sp.Part] || sp.Score <= 0 {
			continue
		}
		cand = append(cand, sp)
		total += sp.Score
	}
	if len(cand) == 0 || total <= 0 {
		// The query's terms occur nowhere we know of — no basis to prune.
		return qproc.MediatorDecision{FullFanout: true}
	}
	budget := m.cfg.SelectN
	if budget <= 0 {
		budget = len(up) / 4
		if budget < 1 {
			budget = 1
		}
	}
	if budget > len(cand) {
		budget = len(cand)
	}
	chosen := cand[:budget]
	share := 0.0
	for _, sp := range chosen {
		share += sp.Score
	}
	share /= total
	// Confidence: how much of the selection score mass the subset holds,
	// in excess of what a uniform spread would give it. 0 = no better
	// than picking sites blindly, 1 = the subset holds everything.
	base := float64(len(chosen)) / float64(len(up))
	conf := 1.0
	if base < 1 {
		conf = (share - base) / (1 - base)
		if conf < 0 {
			conf = 0
		}
		if conf > 1 {
			conf = 1
		}
	}
	if len(chosen) == len(up) {
		return qproc.MediatorDecision{FullFanout: true, Confidence: conf}
	}
	if m.cfg.MinConfidence > 0 && conf < m.cfg.MinConfidence {
		return qproc.MediatorDecision{FullFanout: true, Confidence: conf}
	}
	sites := make([]int, len(chosen))
	for i, sp := range chosen {
		sites[i] = sp.Part
	}
	sort.Ints(sites)
	return qproc.MediatorDecision{Sites: sites, Confidence: conf}
}

// Info is the mediator's operational snapshot.
type Info struct {
	Sites     int // statistics sources registered
	Rebuilds  int // selector builds from every site's statistics (the first refresh)
	Refreshes int // incremental per-site statistic refreshes
}

// Info returns operational counters.
func (m *Mediator) Info() Info {
	m.mu.Lock()
	defer m.mu.Unlock()
	return Info{Sites: len(m.sources), Rebuilds: m.rebuilds, Refreshes: m.refreshes}
}
