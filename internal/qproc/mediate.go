package qproc

import (
	"fmt"
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

// QueryFederated answers one query by scattering it from the nearest
// coordinator to a mediator-selected subset of the up sites, instead of
// Submit's single executor or QueryIncremental's full fan-out. With no
// mediator configured (or when the mediator declines) every up site is
// contacted, and the merged results are byte-identical to
// QueryIncremental's final batch.
//
// The fallback chain mirrors the robustness policy: sites inside outage
// windows never enter the selection; if every *selected* site is lost to
// injected faults, the query retries once as a full fan-out over the
// remaining up sites (attempt 1 of the fault schedule); the
// coordinator's stale cache entry rescues a query nothing could answer.
//
// Like Submit, QueryFederated is meant for a single driving goroutine
// (mediator.Federation wraps it for concurrent front-ends). The per-site
// evaluations fan out over Workers goroutines; the WAN latency draws and
// fault outcomes are consumed serially in site order at the gather, so
// the answer is deterministic at any width.
func (m *MultiSite) QueryFederated(terms []string, key string, region int, atHours float64, k int) (out SiteQueryResult) {
	c, tick := m.coordinate(&out, region, atHours)
	if c == nil {
		return out
	}
	coord := c.ID
	out.BytesTransferred += 64

	ups := m.upSites(atHours)
	upIDs := make([]int, len(ups))
	for i, s := range ups {
		upIDs[i] = s.ID
	}

	// Collection selection. The decision is made before the cache lookup
	// because the cache key names the selected subset.
	targets := ups
	full := true
	if m.mediator != nil {
		d := m.mediator.Decide(terms, upIDs)
		out.Confidence = d.Confidence
		if !d.FullFanout {
			byID := make(map[int]*Site, len(ups))
			for _, s := range ups {
				byID[s.ID] = s
			}
			var sel []*Site
			for _, id := range d.Sites {
				if s, ok := byID[id]; ok {
					sel = append(sel, s)
				}
			}
			if len(sel) > 0 {
				targets, full = sel, false
			}
		}
	}
	out.FullFanout = full
	out.SitesContacted = len(targets)
	out.SitesSkipped = len(ups) - len(targets)
	m.sel.Queries++
	m.sel.SitesContacted += len(targets)
	m.sel.SitesSkipped += len(ups) - len(targets)
	if full {
		m.sel.FullFanout++
	} else {
		m.sel.Mediated++
	}

	targetIDs := make([]int, len(targets))
	for i, s := range targets {
		targetIDs[i] = s.ID
	}
	ckey := FederatedCacheKey(key, k, targetIDs, full)
	stale, hit := m.probe(&out, c, ckey, atHours)
	if hit {
		return out
	}
	defer m.settle(&out, c, ckey, atHours, stale)

	rb := m.siteRB()
	lists, answered := m.scatterSites(&out, targets, terms, tick, 0, coord, k, rb)
	if answered == 0 && !full && len(ups) > len(targets) {
		// Every selected site was lost to faults: widen to a full
		// fan-out over all up sites (fault-schedule attempt 1).
		if rb != nil {
			rb.counters.Retries++
		}
		out.Retries++
		out.SitesContacted = len(ups)
		out.SitesSkipped = 0
		m.sel.SitesContacted += len(ups) - len(targets)
		m.sel.SitesSkipped -= len(ups) - len(targets)
		m.sel.FullFanout++
		m.sel.Mediated--
		out.FullFanout = true
		lists, answered = m.scatterSites(&out, ups, terms, tick, 1, coord, k, rb)
	}
	if answered == 0 {
		if rb != nil {
			rb.counters.Lost++
		}
		out.Failed = true
		out.Err = fmt.Errorf("no federated site answered: %w", ErrAllSitesDown)
		return out
	}
	if answered < out.SitesContacted {
		out.Degraded = true
	}
	out.Results = rank.MergeResultsDedup(k, lists...)
	if len(out.Results) == 0 && out.ServersContacted == 0 {
		// Every contacted replica had all partitions down.
		out.Err = fmt.Errorf("no live query processors at any federated site: %w", ErrAllSitesDown)
	}
	return out
}

// scatterSites evaluates terms on every target site's engine in parallel
// and gathers serially in site order: fault outcomes and WAN latency
// draws (both stateful or schedule-keyed) are consumed in a fixed order,
// so results and accounting are identical at any Workers. It returns the
// per-site result lists of the sites that answered.
func (m *MultiSite) scatterSites(out *SiteQueryResult, targets []*Site, terms []string, tick int64, attempt, coord, k int, rb *robustness) (lists [][]rank.Result, answered int) {
	answers := m.evalSites(targets, terms, k)
	cRegion := m.Sites[coord].Region
	var maxMs float64
	for i, s := range targets {
		if rb != nil {
			fo := rb.outcome(tick, s.ID, 0, attempt)
			if fo.Err != nil {
				rb.counters.FaultsSeen++
				ms := fo.ExtraMs
				if fo.Silent {
					ms = rb.policy.AttemptTimeoutMs
				} else if s.ID != coord {
					ms += m.Net.Latency(cRegion, s.Region, 64)
					out.BytesTransferred += 64
				}
				if ms > maxMs {
					maxMs = ms
				}
				continue
			}
		}
		qr := answers[i]
		ms := qr.LatencyMs
		if s.ID != coord {
			// The WAN request and response messages are what mediation
			// saves; charge them to the byte ledger, not just latency.
			ms += m.Net.Latency(cRegion, s.Region, 128) +
				m.Net.Latency(s.Region, cRegion, int(resultBytes(len(qr.Results))))
			out.BytesTransferred += 128 + resultBytes(len(qr.Results))
		}
		if ms > maxMs {
			maxMs = ms
		}
		if qr.Err != nil || qr.unanswered() {
			// The site's engine refused or had nothing live; it consumed
			// latency but contributes no results.
			if qr.Err != nil {
				out.Degraded = true
			}
			continue
		}
		lists = append(lists, qr.Results)
		answered++
		out.addSite(&qr)
	}
	out.LatencyMs += maxMs
	return lists, answered
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

// ObserveSelectionRecall feeds one Recall@k measurement of a mediated
// answer against the exhaustive fan-out into the selection counters.
// Callers that sample quality (mediator.Federation, dwrbench -run federate)
// use it so EngineStats.Selection reports measured — not asserted —
// result quality.
func (m *MultiSite) ObserveSelectionRecall(r float64) {
	m.sel.RecallSum += r
	m.sel.RecallSamples++
}
