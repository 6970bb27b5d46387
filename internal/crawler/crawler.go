// Package crawler implements the distributed Web crawler of Section 3:
// multiple crawling agents, each owning a set of Web servers, fetching in
// parallel under politeness constraints, exchanging discovered URLs in
// batches, tolerating slow/flaky servers and agent failures, and
// scheduling re-crawls with If-Modified-Since and sitemaps.
//
// The crawl runs on virtual time: server latency, DNS latency, and
// politeness delays advance per-agent clocks, so Web-scale pacing rules
// ("wait several seconds between accesses") cost microseconds of wall
// time.
package crawler

import (
	"fmt"
	"slices"

	"dwr/internal/chash"
	"dwr/internal/dnssim"
	"dwr/internal/simweb"
)

// AssignmentPolicy selects how hosts are mapped to agents.
type AssignmentPolicy int

// Supported assignment policies (paper §3, Partitioning/Dependability).
const (
	// AssignMod hashes the host name modulo the agent count (chash.Mod)
	// — the "trivial, but reasonable" baseline. Cheap, balanced, but
	// nearly all hosts move when an agent joins or leaves.
	AssignMod AssignmentPolicy = iota
	// AssignConsistent uses a consistent-hashing ring (chash.Ring, as in
	// UbiCrawler), moving only ~1/n of hosts on churn.
	AssignConsistent
	// AssignRegionAffinity assigns each host to an agent in the host's
	// own geographic region (hashing among that region's agents) — the
	// geographic partition of Exposto et al. the paper cites for
	// reducing wide-area download traffic. Agents live in region
	// id mod Config.Regions.
	AssignRegionAffinity
)

// String implements fmt.Stringer.
func (p AssignmentPolicy) String() string {
	switch p {
	case AssignMod:
		return "mod-hash"
	case AssignConsistent:
		return "consistent-hash"
	case AssignRegionAffinity:
		return "region-affinity"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config controls a distributed crawl.
type Config struct {
	Agents        int
	Assignment    AssignmentPolicy
	BatchSize     int // URLs per exchange message
	SeedMostCited int // most-cited URLs pre-loaded into every agent
	UseDNSCache   bool
	// PriorityFrontier orders each agent's frontier by the number of
	// citations a URL has accumulated so far (most-cited first) instead
	// of discovery order — the paper's "prioritize high-quality objects"
	// and its concluding open problem of frontier prioritization.
	PriorityFrontier bool
	Regions          int // agent regions for AssignRegionAffinity (0 = single region)
	Seed             int64
}

// Per-agent pacing and fault handling. Every crawl obeys robots.txt.
const (
	threadsPerAgent = 64 // parallel connections per agent
	politenessDelay = 2  // default seconds between accesses to one host
	maxRetries      = 3  // retries for transient (503) failures
	retryBackoff    = 30 // seconds added per retry
	dnsLatencyMs    = 60 // authoritative DNS lookup latency
	crawlDay        = 1  // virtual day the crawl happens on
)

// DefaultConfig returns a reasonable crawl configuration for the
// experiments.
func DefaultConfig() Config {
	return Config{
		Agents:        4,
		Assignment:    AssignConsistent,
		BatchSize:     64,
		SeedMostCited: 0,
		UseDNSCache:   true,
		Seed:          1,
	}
}

// Stats summarizes a finished crawl.
type Stats struct {
	PagesFetched     int     // successful page downloads (incl. refetches after agent failure)
	DistinctPages    int     // distinct pages obtained
	FetchFailures    int     // fetch attempts that failed (503 after retries, 404)
	TransientRetries int     // 503 responses retried
	RobotsFetches    int     // robots.txt downloads
	RobotsSkipped    int     // URLs skipped because robots disallowed them
	URLsExchanged    int     // URLs sent between agents
	ExchangeMessages int     // batched exchange messages
	URLsSuppressed   int     // exchanges avoided thanks to most-cited seeding
	WANBytes         int64   // HTML bytes fetched by an agent outside the host's region
	DNSQueries       int     // authoritative DNS lookups
	DNSHitRatio      float64 // DNS cache hit ratio (0 when cache disabled)
	Coverage         float64 // distinct pages / crawlable pages
	VirtualSeconds   float64 // max agent clock at completion
	PerAgentFetches  []int   // successful fetches per agent
	DuplicateFetches int     // pages fetched more than once (agent failure re-crawl overlap)
	BytesDownloaded  int64   // total HTML bytes transferred
}

// Page is one crawled page as delivered to the indexing pipeline.
type Page struct {
	URL     string
	PageID  int // simweb global page ID (resolved for convenience)
	Agent   int
	HTML    string
	Day     int
	LastMod int
	// FetchedAt is the fetching agent's virtual clock (seconds) when the
	// download completed — the timestamp freshness lag is measured from
	// in the streaming crawl→index pipeline.
	FetchedAt float64
}

// Crawler coordinates a set of agents over a simulated Web.
type Crawler struct {
	cfg      Config
	web      *simweb.Web
	resolver *dnssim.Resolver
	agents   []*agent
	assign   chash.Assigner
	stats    Stats
	// collected holds fetch results keyed by page ID; refetches overwrite.
	collected map[int]*Page
	// fetchOrder records page IDs in the order they were first fetched —
	// the crawl prefix whose quality frontier prioritization improves.
	fetchOrder []int
	// onPage, when set, streams every successful download (including
	// refetches) to the indexing pipeline the moment it happens, in
	// deterministic crawl order.
	onPage func(*Page)
}

// OnPage registers a callback invoked synchronously for every
// successful page download, in the crawler's deterministic fetch order.
// This is the streaming hook that lets indexing run while the crawl is
// still in progress; the callback must not retain p.HTML beyond the
// call if it wants to keep memory bounded. The callback may hand p off
// to another goroutine: the crawl never mutates a delivered page (a
// refetch delivers a new one), and only Recrawl, after Run, updates
// pages in place. Set before Run.
func (c *Crawler) OnPage(fn func(p *Page)) { c.onPage = fn }

// regionAssign keeps each host's crawl traffic inside its region: the
// owner is drawn by modulo hash from the agents of the host's region,
// falling back to the whole pool when that region has no agents.
type regionAssign struct {
	web      *simweb.Web
	all      chash.Mod
	inRegion []chash.Mod // region -> its agents
}

func (r *regionAssign) Owner(host string) int {
	if h := r.web.HostByName(host); h != nil {
		if o := r.inRegion[h.Region%len(r.inRegion)].Owner(host); o >= 0 {
			return o
		}
	}
	return r.all.Owner(host)
}

func (r *regionAssign) Add(id int) {
	r.inRegion[id%len(r.inRegion)].Add(id)
	r.all.Add(id)
}

func (r *regionAssign) Remove(id int) {
	r.inRegion[id%len(r.inRegion)].Remove(id)
	r.all.Remove(id)
}

// New creates a crawler over web with the given configuration.
func New(web *simweb.Web, cfg Config) *Crawler {
	if cfg.Agents <= 0 {
		cfg.Agents = 1
	}
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 1
	}
	c := &Crawler{
		cfg:       cfg,
		web:       web,
		resolver:  dnssim.NewResolver(cfg.Seed+1000, dnsLatencyMs),
		collected: make(map[int]*Page),
	}
	switch cfg.Assignment {
	case AssignConsistent:
		c.assign = chash.NewRing()
	case AssignRegionAffinity:
		c.assign = &regionAssign{web: web, inRegion: make([]chash.Mod, max(1, cfg.Regions))}
	default:
		c.assign = &chash.Mod{}
	}
	for i := 0; i < cfg.Agents; i++ {
		c.assign.Add(i)
		c.agents = append(c.agents, newAgent(i, c))
	}
	return c
}

// Stats returns the crawl statistics accumulated so far.
func (c *Crawler) Stats() Stats {
	s := c.stats
	s.DistinctPages = len(c.collected)
	if n := c.web.CrawlablePages(); n > 0 {
		s.Coverage = float64(len(c.collected)) / float64(n)
	}
	s.PerAgentFetches = make([]int, len(c.agents))
	for i, a := range c.agents {
		if a != nil {
			s.PerAgentFetches[i] = a.fetched
		}
	}
	for _, a := range c.agents {
		if a != nil && a.clock > s.VirtualSeconds {
			s.VirtualSeconds = a.clock
		}
	}
	s.DNSQueries = c.resolver.Queries()
	if c.cfg.UseDNSCache {
		var hits, misses int
		for _, a := range c.agents {
			if a == nil {
				continue
			}
			h, m := a.dns.Stats()
			hits += h
			misses += m
		}
		if hits+misses > 0 {
			s.DNSHitRatio = float64(hits) / float64(hits+misses)
		}
	}
	return s
}

// Pages returns the crawled pages, keyed by simweb page ID.
func (c *Crawler) Pages() map[int]*Page { return c.collected }

// FetchOrder returns page IDs in first-fetch order.
func (c *Crawler) FetchOrder() []int {
	return append([]int(nil), c.fetchOrder...)
}

// Seed injects starting URLs into their owning agents' frontiers.
func (c *Crawler) Seed(urls []string) {
	for _, u := range urls {
		c.deliverNew(u, 0)
	}
	if c.cfg.SeedMostCited > 0 {
		for _, pid := range c.web.MostCited(c.cfg.SeedMostCited) {
			u := c.web.URL(pid)
			c.deliverNew(u, 0)
			for _, a := range c.agents {
				if a != nil {
					a.known[u] = true
				}
			}
		}
	}
}

// SeedFrontPages seeds the crawl with the front page of every host, so
// every crawlable page of the simulated Web is reachable.
func (c *Crawler) SeedFrontPages() {
	var urls []string
	for _, h := range c.web.Hosts {
		if len(h.Pages) > 0 {
			urls = append(urls, c.web.URL(h.Pages[0]))
		}
	}
	c.Seed(urls)
}

// deliverNew routes a URL to its owning agent's frontier; it returns
// true if the receiving agent had not seen the URL before.
func (c *Crawler) deliverNew(url string, readyAt float64) bool {
	host, _, ok := simweb.SplitURL(url)
	if !ok {
		return false
	}
	owner := c.assign.Owner(host)
	if owner < 0 || owner >= len(c.agents) || c.agents[owner] == nil {
		return false
	}
	return c.agents[owner].enqueue(url, readyAt)
}

// Run executes the crawl to completion: agents drain their frontiers,
// exchange batched URLs, and repeat until no URLs remain anywhere.
func (c *Crawler) Run() Stats {
	for {
		progressed := false
		for _, a := range c.agents {
			if a == nil {
				continue
			}
			if a.drain() {
				progressed = true
			}
		}
		// Flush every agent's outboxes (end-of-round exchange).
		delivered := false
		for _, a := range c.agents {
			if a == nil {
				continue
			}
			if a.flushAll() {
				delivered = true
			}
		}
		if !progressed && !delivered {
			break
		}
	}
	return c.Stats()
}

// FailAgent removes agent id mid-crawl: its hosts are reassigned by the
// assignment policy and its pending frontier is re-delivered to the new
// owners (the paper: "it is then necessary to re-allocate the URLs of
// the faulty agent to others"). Already-crawled pages whose hosts moved
// may be fetched again by the new owner; Stats.DuplicateFetches counts
// those.
func (c *Crawler) FailAgent(id int) {
	if id < 0 || id >= len(c.agents) || c.agents[id] == nil {
		return
	}
	failed := c.agents[id]
	c.agents[id] = nil
	c.assign.Remove(id)
	// Re-deliver the failed agent's pending URLs and re-announce the URLs
	// it had crawled, in sorted order, so new owners can verify/refetch
	// their hosts.
	for _, item := range failed.pending() {
		c.deliverNew(item.url, 0)
	}
	done := make([]string, 0, len(failed.done))
	for u := range failed.done {
		done = append(done, u)
	}
	slices.Sort(done)
	for _, u := range done {
		c.deliverNew(u, 0)
	}
}
