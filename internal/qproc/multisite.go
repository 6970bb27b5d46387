package qproc

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"dwr/internal/cache"
	"dwr/internal/cluster"
	"dwr/internal/conc"
	"dwr/internal/metrics"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// ErrAllSitesDown is returned (via SiteQueryResult.Err) when a
// multi-site query finds no reachable processor anywhere: no coordinator
// up, no executor up, or the executing engine had every partition down.
// Inspect with errors.Is; a stale-cache rescue clears it.
var ErrAllSitesDown = errors.New("qproc: all sites down")

// Site is one geographic installation (Figure 3): a coordinator, a
// result cache, and a full query-processing replica, subject to the
// outage process of its cluster.Site.
type Site struct {
	ID      int
	Region  int
	Engine  *DocEngine
	Outages []cluster.Outage // hours; empty = always up

	// Selfish marks a site in an OPEN system (paper §5, Interaction):
	// it serves queries forwarded by other sites' coordinators at lower
	// priority, adding ForeignPenaltyMs of queueing. Federated systems
	// leave this false everywhere.
	Selfish          bool
	ForeignPenaltyMs float64

	// hourLoad tracks queries executed in the current wall-clock hour,
	// the signal load-aware routing uses.
	hourLoad int
	loadHour int
	capacity int // queries/hour before queueing delays kick in

	// cache is the coordinator's result cache. Only route and probe
	// touch it, under MultiSite's mutex: an entry is fresh for
	// MultiSite.CacheTTL hours after it was stored, and stale after.
	cache *cache.LRU[siteEntry]
}

// siteEntry is one coordinator-cached answer and the virtual hour it was
// stored at.
type siteEntry struct {
	results  []rank.Result
	storedAt float64
}

// NewSite creates a site with the given engine, a coordinator cache of
// cacheCap entries (at least one), and an hourly capacity for the load
// model.
func NewSite(id, region int, engine *DocEngine, cacheCap, hourlyCapacity int) *Site {
	return &Site{
		ID:       id,
		Region:   region,
		Engine:   engine,
		capacity: hourlyCapacity,
		cache:    cache.NewLRU[siteEntry](cacheCap),
	}
}

// UpAt reports whether the site is reachable at virtual hour t.
func (s *Site) UpAt(t float64) bool { return cluster.UpAt(s.Outages, t) }

// load returns the site's load counter for hour h, resetting on rollover.
func (s *Site) load(h int) int {
	if h != s.loadHour {
		s.loadHour = h
		s.hourLoad = 0
	}
	return s.hourLoad
}

// queueDelayMs models congestion: as the hour's load approaches
// capacity, waiting grows like rho/(1-rho); beyond capacity it is capped
// at a large penalty.
func (s *Site) queueDelayMs(h int) float64 {
	if s.capacity <= 0 {
		return 0
	}
	rho := float64(s.load(h)) / float64(s.capacity)
	if rho >= 0.99 {
		rho = 0.99
	}
	return 5 * rho / (1 - rho)
}

// RoutingPolicy decides which site executes a query.
type RoutingPolicy int

// Routing policies of Section 5 (Partitioning/External factors).
const (
	// RouteGeo sends the query to the nearest up site (DNS-style
	// geographic routing).
	RouteGeo RoutingPolicy = iota
	// RouteLoadAware starts from the nearest site but offloads to the
	// least-loaded site when the nearest is congested — exploiting the
	// hourly fluctuation of regional query volume.
	RouteLoadAware
	// RouteRoundRobin ignores geography entirely (baseline).
	RouteRoundRobin
)

// MultiSite is the Figure 3 system: multiple sites, each a full replica,
// a WAN between them, per-site caches, and a routing policy. It is safe
// for concurrent callers: every routed query runs under one mutex,
// because the WAN model's RNG, the round-robin cursor, the hour loads
// and the per-site LRU caches are all stateful.
type MultiSite struct {
	Net      *cluster.Network
	Sites    []*Site
	Policy   RoutingPolicy
	CacheTTL float64 // hours a cached result stays fresh; 0 = no caching
	// SampleEvery takes a recall sample on every Nth evaluated, still
	// pruned, error-free mediated answer: the same terms are evaluated
	// exhaustively and the answer's Recall@k against that is fed into the
	// selection counters, so EngineStats.Selection reports measured — not
	// asserted — quality. 0 disables sampling. Set before serving begins.
	SampleEvery int
	// OffloadThreshold is the utilization of the nearest site above
	// which load-aware routing diverts the query (e.g. 0.7).
	OffloadThreshold float64
	// Now is the virtual hour QueryTopK (the uniform Engine surface)
	// submits at, from region 0; drivers that model time and geography
	// explicitly use Submit directly.
	Now float64

	mu     sync.Mutex
	rrNext int

	// The frame's counters, as on DocEngine: evaluated counts the
	// queries that missed the coordinator's cache; hits counts the rest;
	// degraded and failed tally the answers as the caller saw them.
	evaluated, hits, degraded, failed int

	// mediation, when configured (WithMediator), makes QueryTopK take the
	// mediated path: decide picks the site subset each query touches by
	// cori, built at the first query that needs it. sel
	// accumulates the fan-out/quality counters, pruned the answers
	// eligible for a recall sample.
	mediation *mediation
	cori      *selection.CORI
	sel       metrics.SelectionCounters
	pruned    int
}

// NewMultiSite builds an empty multi-site system over net with the given
// routing policy; append Sites afterwards, site i at Sites[i] (the
// mediator's statistics are numbered by site ID). Of the options, only
// WithMediator applies here: engine and cache options are per-site, and
// a site fails only inside its Outages windows.
func NewMultiSite(net *cluster.Network, routing RoutingPolicy, options ...Option) *MultiSite {
	return &MultiSite{
		Net:       net,
		Policy:    routing,
		mediation: resolveOptions(options).mediation,
	}
}

// SiteQueryResult is a query outcome at the multi-site level.
type SiteQueryResult struct {
	QueryResult
	Coordinator int     // site that received the query
	Executor    int     // the one site that evaluated it (-1 for cache hits, failures and fan-outs)
	QueueMs     float64 // congestion delay at the executor (the largest, over a fan-out)
	Failed      bool    // no site answered and no cached answer

	// Federated fan-out accounting (QueryFederated; zero on Submit's
	// single-executor path and on a cache hit, which contacts no site):
	// how many sites the query was dispatched to versus up sites the
	// mediator pruned, and whether the query ended up a full fan-out —
	// riding on the result the way Waves/PartitionsSkipped do on
	// QueryResult.
	SitesContacted int
	SitesSkipped   int
	FullFanout     bool
}

// path is what distinguishes one kind of routed query from another.
// Given the coordinator and the up sites it returns the coordinator
// cache key the answer lives under, and next: the sites to call at
// attempt 0, 1, ... while nobody has answered, nil when nobody is left
// to ask. next runs only on a cache miss, so a hit moves no routing
// state.
type path func(out *SiteQueryResult, c *Site, ups []*Site) (key string, next func(attempt int) []*Site)

// route is the one pipeline every routed query runs, in DocEngine's
// answer order with a coordinator in front: the nearest up site
// coordinates and is charged the client hop; the path plans; the
// coordinator's cache is probed; a miss calls sites until someone
// answers, and a mediated answer's fan-out is folded into the selection
// counters; the merged answer is stored only when complete and on time —
// a degraded, refused or late one would keep serving after the sites
// recover, and would clobber the fresher complete entry kept for stale
// fallback; an execution that failed, or found every query processor
// gone (empty answer), is rescued by a stale entry — the paper's "upon
// query processor failures, the system returns cached results"; the
// deadline is enforced; and the outcome is tallied as the caller sees
// it.
func (m *MultiSite) route(terms []string, region int, atHours float64, k int, deadlineMs float64, p path) (out SiteQueryResult) {
	m.mu.Lock()
	defer m.mu.Unlock()
	out.Executor = -1
	ups := m.upSites(atHours)
	c := nearest(ups, region)
	if c == nil {
		m.evaluated++
		m.failed++
		out.Failed, out.Err = true, ErrAllSitesDown
		return out
	}
	out.Coordinator = c.ID
	out.LatencyMs += m.hop(&out, region, c.Region, 64)
	key, next := p(&out, c, ups)
	stale, hit := m.probe(&out, c, key, atHours)
	if hit {
		m.hits++
	} else {
		m.evaluated++
		m.callUntilAnswered(&out, c, next, terms, k, atHours)
		if out.SitesContacted > 0 { // only the mediated path sets the fan-out
			q := metrics.SelectionCounters{Queries: 1, SitesContacted: out.SitesContacted, SitesSkipped: out.SitesSkipped}
			if out.FullFanout {
				q.FullFanout = 1
			} else {
				q.Mediated = 1
			}
			m.sel.Merge(q)
		}
		onTime := deadlineMs <= 0 || out.LatencyMs <= deadlineMs
		if m.CacheTTL > 0 && out.Err == nil && !out.Degraded && onTime {
			c.cache.Put(key, siteEntry{results: out.Results, storedAt: atHours})
		}
		if (out.Failed || len(out.Results) == 0) && len(stale) > 0 {
			out.Results = stale
			out.FromCache = true
			out.Stale = true
			out.Failed = false
			out.Err = nil
		}
		if m.SampleEvery > 0 && out.SitesSkipped > 0 && !out.FromCache && out.Err == nil {
			if m.pruned++; m.pruned%m.SampleEvery == 0 {
				m.sel.RecallSum += rank.Recall(out.Results, m.QueryExhaustiveResults(terms, atHours, k))
				m.sel.RecallSamples++
			}
		}
	}
	enforceDeadline(&out.QueryResult, deadlineMs)
	switch {
	case out.Err != nil:
		m.failed++
	case out.Degraded:
		m.degraded++
	}
	return out
}

// callUntilAnswered is the one retry loop: it calls the sites next names
// for attempt 0, then for attempt 1, 2, ... while no site has
// contributed a result list, and merges what the last call gathered. An
// answer missing one of the sites it asked is degraded; with none, the
// query fails with the last site's own error.
func (m *MultiSite) callUntilAnswered(out *SiteQueryResult, c *Site, next func(int) []*Site, terms []string, k int, atHours float64) {
	var targets []*Site
	var lists [][]rank.Result
	var err error
	for tries := 0; len(lists) == 0; tries++ {
		t := next(tries)
		if t == nil {
			break
		}
		if tries > 0 {
			out.Retries++
		}
		targets = t
		lists, err = m.callSites(out, c, targets, terms, k, atHours)
	}
	if len(lists) == 0 {
		out.Failed, out.Err = true, err
		return
	}
	if len(targets) == 1 {
		out.Executor = targets[0].ID
	}
	if len(lists) < len(targets) {
		out.Degraded = true
	}
	// Sites may be replicas: the same document can arrive from several
	// of them, so merge with deduplication.
	out.Results = rank.MergeResultsDedup(k, lists...)
}

// callSites is the one site call. It evaluates every target over the
// worker pool, then gathers serially in site order, where the stateful
// WAN model is consulted, so the answer is identical at any GOMAXPROCS.
// Sites answer in parallel: the call costs the slowest one. Each site is
// charged its queue delay and hour load, and the WAN request and
// response; its work is folded into the answer even when its engine
// refused or had nothing live, but only an answering site contributes a
// list (and, if its own answer was partial, the Degraded flag). err is
// the last non-contributing site's own.
func (m *MultiSite) callSites(out *SiteQueryResult, c *Site, targets []*Site, terms []string, k int, atHours float64) (lists [][]rank.Result, err error) {
	h := int(atHours)
	answers := m.evalSites(targets, terms, k)
	var slowest float64
	for i, s := range targets {
		qr := &answers[i]
		queueMs := s.queueDelayMs(h)
		if s != c && s.Selfish {
			// Open system: the remote site re-prioritizes its own
			// traffic ahead of the forwarded query.
			queueMs += s.ForeignPenaltyMs
		}
		s.hourLoad++
		if queueMs > out.QueueMs {
			out.QueueMs = queueMs
		}
		ms := out.addSite(qr) + queueMs
		if s != c {
			// The WAN request and response messages are what mediation
			// saves.
			ms += m.hop(out, c.Region, s.Region, 128) +
				m.hop(out, s.Region, c.Region, resultBytes(len(qr.Results)))
		}
		switch {
		case qr.Err != nil:
			// The engine's fault policy refused the answer (fail-fast).
			err = qr.Err
		case qr.unanswered():
			err = fmt.Errorf("site %d has no live query processors: %w", s.ID, ErrAllSitesDown)
		default:
			lists = append(lists, qr.Results)
			out.Degraded = out.Degraded || qr.Degraded
		}
		if ms > slowest {
			slowest = ms
		}
	}
	out.LatencyMs += slowest
	return lists, err
}

// hop sends one WAN message and books its bytes on the answer's ledger
// exactly where its latency is drawn; the caller places the latency. A
// site does not hop to itself: callers skip the coordinator.
func (m *MultiSite) hop(out *SiteQueryResult, fromRegion, toRegion int, bytes int64) float64 {
	out.BytesTransferred += bytes
	return m.Net.Latency(fromRegion, toRegion)
}

// probe looks key up in the coordinator's cache. A fresh entry answers
// the query (hit). An entry past its TTL is returned as stale, for the
// rescue to fall back on.
func (m *MultiSite) probe(out *SiteQueryResult, c *Site, key string, atHours float64) (stale []rank.Result, hit bool) {
	if m.CacheTTL <= 0 {
		return nil, false
	}
	e, ok := c.cache.Get(key)
	if !ok {
		return nil, false
	}
	if atHours-e.storedAt > m.CacheTTL {
		return e.results, false
	}
	out.Results = e.results
	out.FromCache = true
	out.LatencyMs += cacheHitMs
	return nil, true
}

// query evaluates terms on the site's replica the way every multi-site
// path does: top-k with the engine's precomputed global statistics.
func (s *Site) query(terms []string, k int) QueryResult {
	return s.Engine.Query(terms, DocQueryOptions{K: k, Stats: GlobalPrecomputed})
}

// upSites returns the sites reachable at virtual hour t, ascending by ID
// (Sites is append-ordered).
func (m *MultiSite) upSites(t float64) []*Site {
	var ups []*Site
	for _, s := range m.Sites {
		if s.UpAt(t) {
			ups = append(ups, s)
		}
	}
	return ups
}

// nearest returns the site of ups with the smallest region distance to
// region (the lowest ID among equals), or nil.
func nearest(ups []*Site, region int) *Site {
	var best *Site
	bestDist := math.MaxInt32
	for _, s := range ups {
		d := s.Region - region
		if d < 0 {
			d = -d
		}
		if d < bestDist {
			best, bestDist = s, d
		}
	}
	return best
}

// evalSites evaluates terms on every target site's engine over the
// worker pool (sites have independent engines). Callers consume the
// answers serially in site order, where the stateful WAN model is
// consulted.
func (m *MultiSite) evalSites(targets []*Site, terms []string, k int) []QueryResult {
	answers := make([]QueryResult, len(targets))
	conc.Do(len(targets), 0, func(i int) {
		answers[i] = targets[i].query(terms, k)
	})
	return answers
}

// unanswered reports that a site's engine had no live query processor
// to evaluate on: nothing contacted, nothing found, nothing cached, and
// no live partition skipped. A threshold-sharing engine contacts none
// when no partition's bound admits a match; that is an empty answer.
func (qr *QueryResult) unanswered() bool {
	return qr.ServersContacted == 0 && qr.PartitionsSkipped == 0 && len(qr.Results) == 0 && !qr.FromCache
}

// addSite folds one site engine's work into the multi-site answer and
// returns the site's engine latency for the site call to place.
func (out *SiteQueryResult) addSite(qr *QueryResult) (engineMs float64) {
	out.ServersContacted += qr.ServersContacted
	out.PostingsDecoded += qr.PostingsDecoded
	out.ListsAccessed += qr.ListsAccessed
	out.PostingBytesRead += qr.PostingBytesRead
	out.PostingBytesDecoded += qr.PostingBytesDecoded
	out.BytesTransferred += qr.BytesTransferred
	out.PartitionsSkipped += qr.PartitionsSkipped
	out.Waves += qr.Waves
	out.Retries += qr.Retries
	return qr.LatencyMs
}

// Submit routes one query — terms, origin region, arrival in virtual
// hours — over sites that are replicas: the routing policy picks the one
// up site that executes it.
func (m *MultiSite) Submit(terms []string, key string, region int, atHours float64, k int) SiteQueryResult {
	return m.route(terms, region, atHours, k, 0, m.replicaPath(key, atHours))
}

// replicaPath is the path over replicas: any one site can answer, so
// there is one attempt.
func (m *MultiSite) replicaPath(key string, atHours float64) path {
	return func(_ *SiteQueryResult, c *Site, ups []*Site) (string, func(int) []*Site) {
		return key, func(attempt int) []*Site {
			if attempt > 0 {
				return nil
			}
			return []*Site{m.chooseExecutor(c, ups, atHours)}
		}
	}
}

// chooseExecutor applies the routing policy starting from the
// coordinator, which is one of ups.
func (m *MultiSite) chooseExecutor(c *Site, ups []*Site, at float64) *Site {
	h := int(at)
	switch m.Policy {
	case RouteLoadAware:
		if c.capacity > 0 && float64(c.load(h)) >= m.OffloadThreshold*float64(c.capacity) {
			// Divert to the least-loaded up site.
			var best *Site
			for _, s := range ups {
				if best == nil || s.load(h) < best.load(h) {
					best = s
				}
			}
			return best
		}
	case RouteRoundRobin:
		for range m.Sites {
			s := m.Sites[m.rrNext%len(m.Sites)]
			m.rrNext++
			if s.UpAt(at) {
				return s
			}
		}
	}
	return c
}

// IncrementalBatch is one instalment of an incremental answer: the
// cumulative merged top-k available after AfterMs.
type IncrementalBatch struct {
	AfterMs float64
	Site    int
	Results []rank.Result
}

// QueryIncremental implements Section 5's incremental query processing:
// every up site evaluates the query; results stream back in order of
// site latency, and each batch is the merged top-k so far. The first
// batch arrives at the fastest site's latency rather than the slowest's.
//
// The per-site evaluations fan out over a worker pool (sites are full
// replicas with independent engines); the WAN latency draws — which
// consume the network model's RNG — happen serially in site order at
// the gather, so the batch timeline is deterministic at any GOMAXPROCS.
func (m *MultiSite) QueryIncremental(terms []string, region int, atHours float64, k int) []IncrementalBatch {
	type arrival struct {
		site int
		ms   float64
		res  []rank.Result
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	ups := m.upSites(atHours)
	answers := m.evalSites(ups, terms, k)
	arrivals := make([]arrival, 0, len(ups))
	for i, s := range ups {
		qr := answers[i]
		ms := m.Net.Latency(region, s.Region) + qr.LatencyMs +
			m.Net.Latency(s.Region, region)
		arrivals = append(arrivals, arrival{site: s.ID, ms: ms, res: qr.Results})
	}
	// Sort by arrival time.
	for i := 1; i < len(arrivals); i++ {
		for j := i; j > 0 && arrivals[j].ms < arrivals[j-1].ms; j-- {
			arrivals[j], arrivals[j-1] = arrivals[j-1], arrivals[j]
		}
	}
	var out []IncrementalBatch
	var lists [][]rank.Result
	for _, a := range arrivals {
		lists = append(lists, a.res)
		out = append(out, IncrementalBatch{
			AfterMs: a.ms,
			Site:    a.site,
			// Sites are replicas: the same document can arrive from
			// several of them, so merge with deduplication.
			Results: rank.MergeResultsDedup(k, lists...),
		})
	}
	return out
}
