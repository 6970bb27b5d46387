package crawler

import (
	"container/heap"
	"math/rand"

	"dwr/internal/dnssim"
	"dwr/internal/randx"
	"dwr/internal/robots"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// frontierItem is one URL awaiting download.
type frontierItem struct {
	url      string
	readyAt  float64 // virtual seconds; politeness/backoff gate
	retries  int
	priority float64 // citations observed so far (priority mode)
	idx      int     // heap index, maintained by frontier.Swap
}

// frontier is a min-heap of frontierItems: by readyAt in FIFO-ish mode,
// or by descending priority (citation count at discovery) when the
// crawler runs a prioritized frontier — the paper's "prioritize
// high-quality objects". Progress under politeness is safe either way:
// a requeued item carries the earliest legal start time, and the thread
// clock advances to it.
type frontier struct {
	items      []*frontierItem
	byPriority bool
}

func (f frontier) Len() int { return len(f.items) }
func (f frontier) Less(i, j int) bool {
	a, b := f.items[i], f.items[j]
	if f.byPriority {
		if a.priority != b.priority {
			return a.priority > b.priority
		}
	}
	return a.readyAt < b.readyAt
}
func (f frontier) Swap(i, j int) {
	f.items[i], f.items[j] = f.items[j], f.items[i]
	f.items[i].idx = i
	f.items[j].idx = j
}
func (f *frontier) Push(x interface{}) {
	it := x.(*frontierItem)
	it.idx = len(f.items)
	f.items = append(f.items, it)
}
func (f *frontier) Pop() interface{} {
	old := f.items
	n := len(old)
	it := old[n-1]
	it.idx = -1
	f.items = old[:n-1]
	return it
}

// floatHeap is a min-heap of thread free-at times.
type floatHeap []float64

func (h floatHeap) Len() int            { return len(h) }
func (h floatHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h floatHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *floatHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *floatHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// agent is one crawling process. It runs a private discrete-event loop:
// threadsPerAgent simulated connections drain the frontier under
// per-host politeness, advancing the agent's virtual clock.
type agent struct {
	id      int
	c       *Crawler
	rng     *rand.Rand
	clock   float64
	threads floatHeap
	front   frontier
	seen    map[string]bool // every URL ever enqueued here
	cites   map[string]int  // citations observed per URL (priority signal)
	inFront map[string]*frontierItem
	done    map[string]bool // URLs fetched successfully
	known   map[string]bool // most-cited URLs every agent starts with
	sent    map[string]bool // URLs already exchanged away
	outbox  map[int][]string
	polite  *robots.Politeness
	rules   map[string]*robots.Rules
	dns     *dnssim.Cache
	fetched int
}

func newAgent(id int, c *Crawler) *agent {
	a := &agent{
		id:      id,
		c:       c,
		rng:     randx.New(c.cfg.Seed*1000 + int64(id)),
		seen:    make(map[string]bool),
		cites:   make(map[string]int),
		inFront: make(map[string]*frontierItem),
		done:    make(map[string]bool),
		known:   make(map[string]bool),
		sent:    make(map[string]bool),
		outbox:  make(map[int][]string),
		polite:  robots.NewPoliteness(politenessDelay),
		rules:   make(map[string]*robots.Rules),
		dns:     dnssim.NewCache(c.resolver),
	}
	a.threads = make(floatHeap, threadsPerAgent)
	a.front.byPriority = c.cfg.PriorityFrontier
	heap.Init(&a.threads)
	heap.Init(&a.front)
	return a
}

// enqueue adds a URL to the frontier unless the agent has already seen
// it. It returns true if the URL was new.
func (a *agent) enqueue(url string, readyAt float64) bool {
	a.cites[url]++
	if a.seen[url] {
		// A repeat citation raises the queued item's priority in place —
		// the frontier reorders dynamically as evidence accumulates.
		if a.front.byPriority {
			if it, ok := a.inFront[url]; ok && it.idx >= 0 {
				it.priority++
				heap.Fix(&a.front, it.idx)
			}
		}
		return false
	}
	a.seen[url] = true
	it := &frontierItem{
		url: url, readyAt: readyAt,
		priority: float64(a.cites[url]),
	}
	heap.Push(&a.front, it)
	if a.front.byPriority {
		a.inFront[url] = it
	}
	return true
}

// pending returns the frontier contents (used when the agent fails and
// its work must move to other agents).
func (a *agent) pending() []*frontierItem {
	out := make([]*frontierItem, len(a.front.items))
	copy(out, a.front.items)
	return out
}

// drain processes the frontier until it is empty. It returns true if at
// least one URL was processed.
func (a *agent) drain() bool {
	did := false
	for a.front.Len() > 0 {
		item := heap.Pop(&a.front).(*frontierItem)
		delete(a.inFront, item.url)
		a.process(item)
		did = true
	}
	return did
}

// process downloads one URL (or requeues it when politeness or transient
// failures demand), extracts links, and routes discoveries.
func (a *agent) process(item *frontierItem) {
	cfg := &a.c.cfg
	host, path, ok := simweb.SplitURL(item.url)
	if !ok {
		return
	}

	// Robots filtering happens before any fetch work.
	if !a.robotsFor(host).Allowed(path) {
		a.c.stats.RobotsSkipped++
		return
	}

	threadFree := heap.Pop(&a.threads).(float64)
	start := threadFree
	if item.readyAt > start {
		start = item.readyAt
	}
	var crawlDelay float64
	if r := a.rules[host]; r != nil {
		crawlDelay = r.CrawlDelay
	}
	if acquired, earliest := a.polite.TryAcquire(host, start, crawlDelay); !acquired {
		// Host not yet accessible: requeue at the earliest legal time.
		item.readyAt = earliest
		heap.Push(&a.front, item)
		if a.front.byPriority {
			a.inFront[item.url] = item
		}
		heap.Push(&a.threads, threadFree)
		return
	}

	// DNS resolution (cached or authoritative).
	var dnsLat float64
	if cfg.UseDNSCache {
		_, dnsLat = a.dns.Lookup(host, start)
	} else {
		_, dnsLat = a.c.resolver.Lookup()
	}

	res := a.c.web.Fetch(a.rng, item.url, crawlDay, -1)
	end := start + dnsLat/1000 + res.LatencyMs/1000
	a.polite.Release(host, end, crawlDelay)
	heap.Push(&a.threads, end)
	if end > a.clock {
		a.clock = end
	}

	switch res.Status {
	case simweb.StatusUnavailable:
		if item.retries < maxRetries {
			item.retries++
			item.readyAt = end + retryBackoff*float64(item.retries)
			a.c.stats.TransientRetries++
			heap.Push(&a.front, item)
			if a.front.byPriority {
				a.inFront[item.url] = item
			}
			return
		}
		a.c.stats.FetchFailures++
	case simweb.StatusNotFound:
		a.c.stats.FetchFailures++
	case simweb.StatusOK:
		a.handleFetched(item.url, res, end)
	}
}

// handleFetched records a successful download and routes extracted links.
func (a *agent) handleFetched(url string, res simweb.FetchResult, at float64) {
	c := a.c
	a.fetched++
	c.stats.PagesFetched++
	c.stats.BytesDownloaded += int64(len(res.HTML))
	a.done[url] = true

	// Geographic accounting: bytes an agent pulls from another region
	// cross the WAN (§3: "carefully distribute Web crawlers across
	// distinct geographic locations").
	if regions := c.cfg.Regions; regions > 1 {
		if host, _, ok := simweb.SplitURL(url); ok {
			if h := c.web.HostByName(host); h != nil && h.Region%regions != a.id%regions {
				c.stats.WANBytes += int64(len(res.HTML))
			}
		}
	}

	pid := c.web.PageByURL(url)
	if pid >= 0 {
		if _, dup := c.collected[pid]; dup {
			c.stats.DuplicateFetches++
		} else {
			c.fetchOrder = append(c.fetchOrder, pid)
		}
		c.collected[pid] = &Page{
			URL: url, PageID: pid, Agent: a.id,
			HTML: res.HTML, Day: crawlDay, LastMod: res.LastModified,
			FetchedAt: at,
		}
		if c.onPage != nil {
			c.onPage(c.collected[pid])
		}
	}

	doc := textproc.ParseHTML(res.HTML)
	for _, href := range doc.Links {
		abs := simweb.ResolveLink(url, href)
		if abs == "" {
			continue
		}
		a.route(abs, at)
	}
}

// route sends a discovered URL to its owner: locally enqueued when this
// agent owns the host (link locality makes this the common case), or
// placed in the batched outbox otherwise. URLs in the shared most-cited
// seed set are never exchanged — the paper's power-law optimization.
func (a *agent) route(url string, at float64) {
	host, _, ok := simweb.SplitURL(url)
	if !ok {
		return
	}
	owner := a.c.assign.owner(host)
	if owner == a.id {
		a.enqueue(url, at)
		return
	}
	if a.known[url] {
		a.c.stats.URLsSuppressed++
		return
	}
	if a.sent[url] {
		return
	}
	a.sent[url] = true
	a.outbox[owner] = append(a.outbox[owner], url)
	if len(a.outbox[owner]) >= a.c.cfg.BatchSize {
		a.flush(owner)
	}
}

// flush sends one batched exchange message to the owner agent.
func (a *agent) flush(owner int) bool {
	batch := a.outbox[owner]
	if len(batch) == 0 {
		return false
	}
	a.outbox[owner] = nil
	a.c.stats.ExchangeMessages++
	a.c.stats.URLsExchanged += len(batch)
	delivered := false
	for _, u := range batch {
		if a.c.deliverNew(u, a.clock) {
			delivered = true
		}
	}
	return delivered
}

// flushAll flushes every outbox; it returns true if any receiver gained
// a URL it had not seen.
func (a *agent) flushAll() bool {
	delivered := false
	for owner := range a.outbox {
		if a.flush(owner) {
			delivered = true
		}
	}
	return delivered
}

// robotsFor returns (fetching and caching if necessary) the robots rules
// of a host. Fetching robots.txt is charged as one crawl request.
func (a *agent) robotsFor(host string) *robots.Rules {
	if r, ok := a.rules[host]; ok {
		return r
	}
	body := a.c.web.Robots(host)
	a.c.stats.RobotsFetches++
	r := robots.Parse(body, "dwr")
	a.rules[host] = r
	return r
}
