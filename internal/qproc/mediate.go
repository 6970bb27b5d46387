package qproc

import (
	"fmt"
	"strconv"
	"strings"

	"dwr/internal/index"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// FederatedCacheKey is the per-region result-cache key of a federated
// query: the canonical term key, k, and the `sel=` component naming the
// exact site subset the answer was computed from. Encoding the subset
// keeps answers from differently-selected evaluations (stats refreshed,
// sites down) from colliding — the federated analogue of DocCacheKey's
// pr=/ts= rules.
func FederatedCacheKey(key string, k int, sites []int, full bool) string {
	var sel string
	if full {
		sel = "*"
	} else {
		var b strings.Builder
		for i, s := range sites {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(s))
		}
		sel = b.String()
	}
	return fmt.Sprintf("fed|k=%d|sel=%s|%s", k, sel, key)
}

// QueryFederated answers one query over sites that are collections, not
// replicas: the mediator picks the subset of the up sites to scatter to,
// instead of Submit's single executor. With no mediator configured (or
// when the mediator declines) every up site is contacted, and the merged
// results are byte-identical to QueryIncremental's final batch.
//
// The fallback chain: sites inside outage windows never enter the
// selection; if no *selected* site answers, the query widens once to
// every up site (attempt 1) — a site still silent then degrades the
// answer; the coordinator's stale cache entry rescues a query nothing
// could answer.
func (m *MultiSite) QueryFederated(terms []string, key string, region int, atHours float64, k int) SiteQueryResult {
	return m.route(terms, region, atHours, k, 0, m.mediatedPath(terms, key, k))
}

// mediatedPath is the path over collections: every selected site holds
// part of the answer.
func (m *MultiSite) mediatedPath(terms []string, key string, k int) path {
	return func(out *SiteQueryResult, _ *Site, ups []*Site) (string, func(int) []*Site) {
		// Collection selection comes before the cache probe because the
		// cache key names the selected subset; the fan-out is set on the
		// answer at the first call, because a cache hit contacts no site.
		sel, _ := m.decide(terms, ups)
		targets, ids := ups, make([]int, len(sel))
		for i, s := range sel {
			ids[i] = s.ID
		}
		if sel != nil {
			targets = sel
		}
		full, skipped := sel == nil, len(ups)-len(targets)
		return FederatedCacheKey(key, k, ids, full), func(attempt int) []*Site {
			switch {
			case attempt == 0:
				out.FullFanout = full
				out.SitesContacted, out.SitesSkipped = len(targets), skipped
				return targets
			case attempt == 1 && skipped > 0:
				out.FullFanout = true
				out.SitesContacted, out.SitesSkipped = len(ups), 0
				return ups
			}
			return nil
		}
	}
}

// decide is the query mediator, after Dushay & French's mediators for
// federated collections: it ranks the up sites by CORI over each site's
// collection statistics, keeps the score-bearing ones under
// WithMediator's selectN budget, and prunes to them only when the
// selection score mass they hold clears its minConfidence floor. It
// returns the sites to contact, ascending, or nil for a full fan-out,
// and the pruning confidence. The selector is built at the first
// mediated query, so sites may be appended after construction; site
// engines are immutable, so it never goes stale.
func (m *MultiSite) decide(terms []string, ups []*Site) (sel []*Site, conf float64) {
	if m.mediation == nil || len(ups) <= 1 {
		return nil, 0
	}
	if m.cori == nil {
		stats := make([]index.Stats, len(m.Sites))
		for i, s := range m.Sites {
			stats[i] = s.Engine.GlobalStats()
		}
		m.cori = selection.NewCORI(stats)
	}
	up := make(map[int]bool, len(ups))
	for _, s := range ups {
		up[s.ID] = true
	}
	// Candidates: up sites carrying any selection score, best first.
	var cand []selection.ScoredPart
	total := 0.0
	for _, sp := range m.cori.RankScored(terms) {
		if up[sp.Part] && sp.Score > 0 {
			cand = append(cand, sp)
			total += sp.Score
		}
	}
	if total <= 0 {
		// The query's terms occur nowhere we know of — no basis to prune.
		return nil, 0
	}
	budget := m.mediation.selectN
	if budget <= 0 {
		budget = max(1, len(ups)/4)
	}
	chosen := cand[:min(budget, len(cand))]
	share := 0.0
	for _, sp := range chosen {
		share += sp.Score
	}
	// Confidence: how much of the selection score mass the subset holds,
	// in excess of what a uniform spread would give it. 0 = no better
	// than picking sites blindly, 1 = the subset holds everything.
	base := float64(len(chosen)) / float64(len(ups))
	conf = 1
	if base < 1 {
		conf = min(1, max(0, (share/total-base)/(1-base)))
	}
	if len(chosen) == len(ups) || conf < m.mediation.minConfidence {
		return nil, conf
	}
	picked := make(map[int]bool, len(chosen))
	for _, sp := range chosen {
		picked[sp.Part] = true
	}
	for _, s := range ups {
		if picked[s.ID] {
			sel = append(sel, s)
		}
	}
	return sel, conf
}

// QueryExhaustiveResults evaluates terms on every up site's engine and
// returns the deduplicated merged top-k — the exhaustive reference a
// recall sample compares a mediated answer against. It bypasses the
// multi-site clock, caches, WAN model, and fault schedule entirely so a
// sampling caller does not perturb the deterministic replay of the main
// query stream (site-engine work counters do advance; results never
// depend on them).
func (m *MultiSite) QueryExhaustiveResults(terms []string, atHours float64, k int) []rank.Result {
	var lists [][]rank.Result
	for _, qr := range m.evalSites(m.upSites(atHours), terms, k) {
		if qr.Err == nil {
			lists = append(lists, qr.Results)
		}
	}
	return rank.MergeResultsDedup(k, lists...)
}
