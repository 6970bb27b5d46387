package qproc

import (
	"errors"
	"fmt"
	"math"

	"dwr/internal/cache"
	"dwr/internal/cluster"
	"dwr/internal/conc"
	"dwr/internal/faultsim"
	"dwr/internal/metrics"
	"dwr/internal/rank"
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
	Cache   cache.Cache[[]rank.Result]
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
}

// NewSite creates a site with the given engine, an LRU result cache of
// cacheCap entries, and an hourly capacity for the load model.
func NewSite(id, region int, engine *DocEngine, cacheCap, hourlyCapacity int) *Site {
	return &Site{
		ID:       id,
		Region:   region,
		Engine:   engine,
		Cache:    cache.NewLRU[[]rank.Result](cacheCap),
		capacity: hourlyCapacity,
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
// a WAN between them, per-site caches, and a routing policy.
type MultiSite struct {
	Net      *cluster.Network
	Sites    []*Site
	Policy   RoutingPolicy
	CacheTTL float64 // hours a cached result stays fresh; 0 = no caching
	// OffloadThreshold is the utilization of the nearest site above
	// which load-aware routing diverts the query (e.g. 0.7).
	OffloadThreshold float64
	// Workers bounds the fan-out of QueryIncremental's per-site
	// evaluations (0 = GOMAXPROCS, 1 = serial). Results are identical
	// at any width: site engines are independent, and the stateful WAN
	// latency model is only consulted serially at the gather point.
	Workers int
	// Now and HomeRegion are the virtual hour and origin region
	// QueryTopK (the uniform Engine surface) submits from; drivers that
	// model time and geography explicitly use Submit directly.
	Now        float64
	HomeRegion int

	rrNext int

	// Site-level fault handling (set via NewMultiSite options): the
	// injector's units are site IDs, and failed attempts walk the other
	// up sites nearest the coordinator. rb is built lazily at the first
	// Submit so sites may be appended after construction; ticks is the
	// fault-schedule clock (Submit is single-caller, like rrNext).
	faultPolicy *FaultPolicy
	injector    *faultsim.Injector
	rb          *robustness
	ticks       int64

	// mediator, when configured (WithMediator), makes QueryTopK take the
	// federated path: collection selection decides the site subset each
	// query touches. sel accumulates the fan-out/quality counters at the
	// serial gather (single-caller, like ticks).
	mediator Mediator
	sel      metrics.SelectionCounters
}

// NewMultiSite builds an empty multi-site system over net with the given
// routing policy; append Sites afterwards. Options configure the
// site-level fault path (WithFaultPolicy, WithInjector) and the
// QueryIncremental fan-out (WithWorkers); engine/cache options are
// per-site and ignored here.
func NewMultiSite(net *cluster.Network, routing RoutingPolicy, options ...Option) *MultiSite {
	eo := resolveOptions(options)
	m := &MultiSite{
		Net:         net,
		Policy:      routing,
		Workers:     eo.workers,
		faultPolicy: eo.policy,
		injector:    eo.injector,
		mediator:    eo.mediator,
	}
	return m
}

// siteRB lazily materializes the site-level robustness runtime once the
// site count is known (nil when no fault options were given).
func (m *MultiSite) siteRB() *robustness {
	if m.rb == nil && (m.faultPolicy != nil || m.injector != nil) && len(m.Sites) > 0 {
		p := DefaultFaultPolicy()
		if m.faultPolicy != nil {
			p = *m.faultPolicy
		}
		// A site has no replica behind it: failover is to another site.
		p.Replicas = 1
		m.rb = newRobustness(p, m.injector, len(m.Sites))
	}
	return m.rb
}

// SiteQueryResult is a query outcome at the multi-site level.
type SiteQueryResult struct {
	QueryResult
	Coordinator int     // site that received the query
	Executor    int     // site that evaluated it (-1 for cache hits/failures)
	QueueMs     float64 // congestion delay at the executor
	Failed      bool    // no site reachable and no cached answer

	// Federated fan-out accounting (QueryFederated; zero on Submit's
	// single-executor path): how many sites the query was dispatched to
	// versus up sites the mediator pruned, whether the query ended up a
	// full fan-out, and the mediator's pruning confidence — riding on
	// the result the way Waves/PartitionsSkipped do on QueryResult.
	SitesContacted int
	SitesSkipped   int
	FullFanout     bool
	Confidence     float64
}

// coordinate is the front half of every routed query: it draws the next
// fault-schedule tick, finds the nearest up site to coordinate, and
// charges the client ↔ coordinator hop. With no site up anywhere the
// query has failed and c is nil.
func (m *MultiSite) coordinate(out *SiteQueryResult, region int, atHours float64) (c *Site, tick int64) {
	out.Executor = -1
	m.ticks++
	coord := m.nearestUp(region, atHours)
	if coord < 0 {
		out.Failed = true
		out.Err = ErrAllSitesDown
		return nil, m.ticks
	}
	out.Coordinator = coord
	c = m.Sites[coord]
	out.LatencyMs += m.Net.Latency(region, c.Region, 64)
	return c, m.ticks
}

// probe looks key up in the coordinator's cache. A fresh entry answers
// the query (hit). An entry past its TTL is returned as stale, for
// settle to fall back on.
func (m *MultiSite) probe(out *SiteQueryResult, c *Site, key string, atHours float64) (stale []rank.Result, hit bool) {
	if m.CacheTTL <= 0 {
		return nil, false
	}
	e, ok := c.Cache.Get(key)
	if !ok {
		return nil, false
	}
	if atHours-e.StoredAt > m.CacheTTL {
		return e.Value, false
	}
	out.Results = e.Value
	out.FromCache = true
	out.LatencyMs += 0.2
	return nil, true
}

// settle closes a routed query that missed the cache; callers defer it
// so it sees the answer however the evaluation returned. A complete
// answer is stored at the coordinator — degraded or refused ones never
// are: a partial result would keep serving after the processors recover,
// and would clobber a fresher complete entry kept for stale fallback.
// An execution that failed, or found every query processor gone (empty
// answer), is rescued by the stale entry probe found — the paper's "upon
// query processor failures, the system returns cached results".
func (m *MultiSite) settle(out *SiteQueryResult, c *Site, key string, atHours float64, stale []rank.Result) {
	if m.CacheTTL > 0 && out.Err == nil && !out.Degraded {
		c.Cache.Put(key, out.Results, atHours)
	}
	if (out.Failed || len(out.Results) == 0) && len(stale) > 0 {
		out.Results = stale
		out.FromCache = true
		out.Stale = true
		out.Failed = false
		out.Err = nil
	}
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

// evalSites evaluates terms on every target site's engine over the
// worker pool (sites are full replicas with independent engines).
// Callers consume the answers serially in site order, where the
// stateful WAN model and the fault schedule are consulted.
func (m *MultiSite) evalSites(targets []*Site, terms []string, k int) []QueryResult {
	answers := make([]QueryResult, len(targets))
	conc.Do(len(targets), m.Workers, func(i int) {
		answers[i] = targets[i].query(terms, k)
	})
	return answers
}

// unanswered reports that a site's engine had no live query processor
// to evaluate on: nothing contacted, nothing found, nothing cached.
func (qr *QueryResult) unanswered() bool {
	return qr.ServersContacted == 0 && len(qr.Results) == 0 && !qr.FromCache
}

// addSite folds one site engine's work into the multi-site answer.
// Sites evaluate in parallel, so Rounds is the slowest site's, not the
// sum. Where the site's latency lands depends on the route, so it is
// returned for the caller to place: a single executor adds it, a
// scatter keeps only the slowest site's.
func (out *SiteQueryResult) addSite(qr *QueryResult) (engineMs float64) {
	if qr.Rounds > out.Rounds {
		out.Rounds = qr.Rounds
	}
	out.ServersContacted += qr.ServersContacted
	out.PostingsDecoded += qr.PostingsDecoded
	out.ListsAccessed += qr.ListsAccessed
	out.PostingBytesRead += qr.PostingBytesRead
	out.PostingBytesDecoded += qr.PostingBytesDecoded
	out.BytesTransferred += qr.BytesTransferred
	out.PartitionsSkipped += qr.PartitionsSkipped
	out.Waves += qr.Waves
	out.Retries += qr.Retries
	out.Hedges += qr.Hedges
	if qr.Degraded {
		out.Degraded = true
	}
	return qr.LatencyMs
}

// Submit routes one query: terms, origin region, arrival in virtual
// hours. The nearest up site coordinates; the answer may come from its
// cache (fresh, or stale if every replica is down), or from the single
// executing site the routing policy chooses.
// The result is a named return so the deferred settle can rewrite it
// after the main path has decided to fail.
func (m *MultiSite) Submit(terms []string, key string, region int, atHours float64, k int) (out SiteQueryResult) {
	c, tick := m.coordinate(&out, region, atHours)
	if c == nil {
		return out
	}
	stale, hit := m.probe(&out, c, key, atHours)
	if hit {
		return out
	}
	defer m.settle(&out, c, key, atHours, stale)
	coord := c.ID

	exec := m.chooseExecutor(coord, atHours)
	if exec < 0 {
		out.Failed = true
		out.Err = ErrAllSitesDown
		return out
	}
	if rb := m.siteRB(); rb != nil {
		// Site-level robustness: the chosen executor may be crashed,
		// flaky, or inside an outage window per the injector; failed
		// attempts retry against the next-nearest up site. Failure
		// detection costs AttemptTimeoutMs when the site died silently,
		// or a WAN round trip when it answered with an error.
		tried := make(map[int]bool)
		first, cur, ok := exec, exec, false
		for a := 0; a <= rb.policy.MaxRetries; a++ {
			if a > 0 {
				rb.counters.Retries++
				out.Retries++
				out.LatencyMs += rb.policy.BackoffMs * float64(int(1)<<uint(a-1))
			}
			fo := rb.outcome(tick, cur, 0, a)
			if fo.Err == nil {
				out.LatencyMs += fo.ExtraMs
				ok = true
				break
			}
			rb.counters.FaultsSeen++
			tried[cur] = true
			if fo.Silent {
				out.LatencyMs += rb.policy.AttemptTimeoutMs
			} else {
				out.LatencyMs += m.Net.Latency(m.Sites[coord].Region, m.Sites[cur].Region, 64) + fo.ExtraMs
			}
			next, bestDist := -1, math.MaxInt32
			for _, s := range m.Sites {
				if tried[s.ID] || !s.UpAt(atHours) {
					continue
				}
				d := s.Region - m.Sites[coord].Region
				if d < 0 {
					d = -d
				}
				if d < bestDist || (d == bestDist && (next < 0 || s.ID < next)) {
					next, bestDist = s.ID, d
				}
			}
			if next < 0 {
				break
			}
			cur = next
		}
		if !ok {
			rb.counters.Lost++
			out.Failed = true
			out.Err = fmt.Errorf("no site answered within the fault budget: %w", ErrAllSitesDown)
			return out
		}
		if cur != first {
			rb.counters.Failovers++
		}
		exec = cur
	}
	out.Executor = exec
	x := m.Sites[exec]
	h := int(atHours)
	out.QueueMs = x.queueDelayMs(h)
	if exec != coord && x.Selfish {
		// Open system: the remote site re-prioritizes its own traffic
		// ahead of the forwarded query.
		out.QueueMs += x.ForeignPenaltyMs
	}
	x.hourLoad++

	if exec != coord {
		out.LatencyMs += m.Net.Latency(c.Region, x.Region, 128)
	}
	qr := x.query(terms, k)
	out.Results = qr.Results
	out.LatencyMs += out.addSite(&qr) + out.QueueMs
	if exec != coord {
		out.LatencyMs += m.Net.Latency(x.Region, c.Region, int(resultBytes(len(qr.Results))))
	}
	switch {
	case qr.Err != nil:
		// The engine's fault policy refused the answer (fail-fast).
		out.Err = qr.Err
	case qr.unanswered():
		// Every partition of the executing replica is down: nothing
		// anywhere could answer. The stale fallback may still rescue this.
		out.Err = fmt.Errorf("site %d has no live query processors: %w", exec, ErrAllSitesDown)
	}
	return out
}

// nearestUp returns the up site with the smallest region distance to
// region, or -1.
func (m *MultiSite) nearestUp(region int, at float64) int {
	best, bestDist := -1, math.MaxInt32
	for _, s := range m.Sites {
		if !s.UpAt(at) {
			continue
		}
		d := s.Region - region
		if d < 0 {
			d = -d
		}
		if d < bestDist || (d == bestDist && best >= 0 && s.ID < best) {
			best, bestDist = s.ID, d
		}
	}
	return best
}

// chooseExecutor applies the routing policy starting from the
// coordinator site.
func (m *MultiSite) chooseExecutor(coord int, at float64) int {
	h := int(at)
	switch m.Policy {
	case RouteLoadAware:
		c := m.Sites[coord]
		if c.capacity > 0 && float64(c.load(h)) >= m.OffloadThreshold*float64(c.capacity) {
			// Divert to the least-loaded up site.
			best, bestLoad := -1, math.MaxInt32
			for _, s := range m.Sites {
				if !s.UpAt(at) {
					continue
				}
				if l := s.load(h); l < bestLoad {
					best, bestLoad = s.ID, l
				}
			}
			if best >= 0 {
				return best
			}
		}
		if c.UpAt(at) {
			return coord
		}
	case RouteRoundRobin:
		for try := 0; try < len(m.Sites); try++ {
			s := m.Sites[m.rrNext%len(m.Sites)]
			m.rrNext++
			if s.UpAt(at) {
				return s.ID
			}
		}
		return -1
	default: // RouteGeo
		if m.Sites[coord].UpAt(at) {
			return coord
		}
	}
	// Coordinator down mid-decision: any up site.
	for _, s := range m.Sites {
		if s.UpAt(at) {
			return s.ID
		}
	}
	return -1
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
// the gather, so the batch timeline is deterministic at any Workers.
func (m *MultiSite) QueryIncremental(terms []string, region int, atHours float64, k int) []IncrementalBatch {
	type arrival struct {
		site int
		ms   float64
		res  []rank.Result
	}
	ups := m.upSites(atHours)
	answers := m.evalSites(ups, terms, k)
	arrivals := make([]arrival, 0, len(ups))
	for i, s := range ups {
		qr := answers[i]
		ms := m.Net.Latency(region, s.Region, 64) + qr.LatencyMs +
			m.Net.Latency(s.Region, region, int(resultBytes(len(qr.Results))))
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
