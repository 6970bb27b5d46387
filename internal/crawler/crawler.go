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

	"dwr/internal/chash"
	"dwr/internal/dnssim"
	"dwr/internal/simweb"
)

// AssignmentPolicy selects how hosts are mapped to agents.
type AssignmentPolicy int

// Supported assignment policies (paper §3, Partitioning/Dependability).
const (
	// AssignMod hashes the host name modulo the agent count — the
	// "trivial, but reasonable" baseline. Cheap, balanced, but nearly all
	// hosts move when an agent joins or leaves.
	AssignMod AssignmentPolicy = iota
	// AssignConsistent uses a consistent-hashing ring (UbiCrawler),
	// moving only ~1/n of hosts on churn.
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
	assign   assigner
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
// call if it wants to keep memory bounded. Set before Run.
func (c *Crawler) OnPage(fn func(p *Page)) { c.onPage = fn }

// assigner abstracts the two assignment policies plus membership change.
type assigner interface {
	owner(host string) int
	addAgent(id int)
	removeAgent(id int)
}

type modAssign struct {
	ids []int
}

func (m *modAssign) owner(host string) int {
	if len(m.ids) == 0 {
		return -1
	}
	return m.ids[int(hashHost(host)%uint64(len(m.ids)))]
}
func (m *modAssign) addAgent(id int) { m.ids = append(m.ids, id) }
func (m *modAssign) removeAgent(id int) {
	for i, v := range m.ids {
		if v == id {
			m.ids = append(m.ids[:i], m.ids[i+1:]...)
			return
		}
	}
}

func hashHost(host string) uint64 {
	var h uint64 = 1469598103934665603
	for i := 0; i < len(host); i++ {
		h ^= uint64(host[i])
		h *= 1099511628211
	}
	// splitmix-style finalize for spread
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	return h
}

// regionAssign keeps each host's crawl traffic inside its region: the
// owner is drawn (by hash) from the agents of the host's region, falling
// back to the whole pool when that region has no agents.
type regionAssign struct {
	web     *simweb.Web
	regions int
	agents  map[int][]int // region -> agent IDs
	all     []int
}

func (r *regionAssign) owner(host string) int {
	if len(r.all) == 0 {
		return -1
	}
	candidates := r.all
	if h := r.web.HostByName(host); h != nil {
		if regional := r.agents[h.Region%r.regions]; len(regional) > 0 {
			candidates = regional
		}
	}
	return candidates[int(hashHost(host)%uint64(len(candidates)))]
}

func (r *regionAssign) addAgent(id int) {
	if r.agents == nil {
		r.agents = make(map[int][]int)
	}
	region := id % r.regions
	r.agents[region] = append(r.agents[region], id)
	r.all = append(r.all, id)
}

func (r *regionAssign) removeAgent(id int) {
	region := id % r.regions
	r.agents[region] = removeInt(r.agents[region], id)
	r.all = removeInt(r.all, id)
}

func removeInt(s []int, v int) []int {
	for i, x := range s {
		if x == v {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

type ringAssign struct {
	ring *chash.Ring
}

func (r *ringAssign) owner(host string) int {
	m := r.ring.Assign(host)
	if m == "" {
		return -1
	}
	var id int
	fmt.Sscanf(m, "agent%d", &id)
	return id
}
func (r *ringAssign) addAgent(id int)    { r.ring.Add(fmt.Sprintf("agent%d", id)) }
func (r *ringAssign) removeAgent(id int) { r.ring.Remove(fmt.Sprintf("agent%d", id)) }

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
		c.assign = &ringAssign{ring: chash.NewRing(128)}
	case AssignRegionAffinity:
		c.assign = &regionAssign{web: web, regions: max(1, cfg.Regions)}
	default:
		c.assign = &modAssign{}
	}
	for i := 0; i < cfg.Agents; i++ {
		c.assign.addAgent(i)
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
	owner := c.assign.owner(host)
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
	c.assign.removeAgent(id)
	// Re-deliver the failed agent's pending URLs and re-announce the URLs
	// it had crawled, so new owners can verify/refetch their hosts.
	for _, item := range failed.pending() {
		c.deliverNew(item.url, 0)
	}
	for u := range failed.done {
		c.deliverNew(u, 0)
	}
}
