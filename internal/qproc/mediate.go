package qproc

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"dwr/internal/rank"
)

// Mediator decides which sites (or live partitions) a federated query
// touches — the collection-selection step of Section 5 put on the
// serving path. Implementations rank the reachable units with a
// selection.Selector over per-site collection statistics and cut the
// ranking at a budget; internal/mediator provides the standard one.
//
// Decide must be deterministic for fixed statistics: engines call it on
// the query path and cache answers under keys derived from the decision.
type Mediator interface {
	// Decide returns the subset of up (ascending unit IDs, all currently
	// reachable) that the query should contact. Engines intersect the
	// answer with up again defensively and fall back to full fan-out
	// when the decision is empty.
	Decide(terms []string, up []int) MediatorDecision
}

// MediatorDecision is the mediator's routing verdict for one query.
type MediatorDecision struct {
	// Sites is the unit subset to contact, ascending. Ignored when
	// FullFanout is set.
	Sites []int
	// FullFanout requests contacting every up unit: the mediator had no
	// statistics, the score mass was too flat to prune confidently, or
	// selection is disabled.
	FullFanout bool
	// Confidence is the mediator's self-assessed pruning confidence in
	// [0,1] (how concentrated the selection score mass was on the chosen
	// subset). Informational; the fallback decision is FullFanout.
	Confidence float64
}

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
// The fallback chain mirrors the robustness policy: sites inside outage
// windows never enter the selection; if every *selected* site is lost,
// the query widens once to every up site (attempt 1 of the fault
// schedule) — a site still lost then degrades the answer; the
// coordinator's stale cache entry rescues a query nothing could answer.
func (m *MultiSite) QueryFederated(terms []string, key string, region int, atHours float64, k int) SiteQueryResult {
	return m.route(terms, region, atHours, k, 0, m.mediatedPath(terms, key, k))
}

// mediatedPath is the path over collections: every selected site holds
// part of the answer.
func (m *MultiSite) mediatedPath(terms []string, key string, k int) path {
	return func(out *SiteQueryResult, _ *Site, ups []*Site) (string, func(int) []*Site) {
		// Collection selection comes before the cache probe because the
		// cache key names the selected subset.
		targets, full := ups, true
		var ids []int // the selected subset, for the cache key
		if m.mediator != nil {
			upIDs := make([]int, len(ups))
			for i, s := range ups {
				upIDs[i] = s.ID
			}
			d := m.mediator.Decide(terms, upIDs)
			out.Confidence = d.Confidence
			var sel []*Site
			for _, s := range ups {
				if !d.FullFanout && slices.Contains(d.Sites, s.ID) {
					sel, ids = append(sel, s), append(ids, s.ID)
				}
			}
			if len(sel) > 0 {
				targets, full = sel, false
			}
		}
		skipped := len(ups) - len(targets)
		out.FullFanout = full
		out.SitesContacted = len(targets)
		out.SitesSkipped = skipped
		m.sel.Queries++
		m.sel.SitesContacted += len(targets)
		m.sel.SitesSkipped += skipped
		if full {
			m.sel.FullFanout++
		} else {
			m.sel.Mediated++
		}
		return FederatedCacheKey(key, k, ids, full), func(attempt int) []*Site {
			switch {
			case attempt == 0:
				return targets
			case attempt == 1 && skipped > 0:
				out.FullFanout = true
				out.SitesContacted = len(ups)
				out.SitesSkipped = 0
				m.sel.SitesContacted += skipped
				m.sel.SitesSkipped -= skipped
				m.sel.FullFanout++
				m.sel.Mediated--
				return ups
			}
			return nil
		}
	}
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
