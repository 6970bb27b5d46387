package crawler

import (
	"testing"

	"dwr/internal/simweb"
)

func testWeb() *simweb.Web {
	cfg := simweb.DefaultConfig()
	cfg.Hosts = 50
	cfg.MaxPages = 40
	cfg.VocabSize = 1500
	return simweb.New(cfg)
}

func TestCrawlCoverage(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	c.SeedFrontPages()
	st := c.Run()
	if st.Coverage < 0.85 {
		t.Fatalf("coverage = %.2f, want ≥ 0.85 (crawl should reach almost all crawlable pages)", st.Coverage)
	}
	if st.DistinctPages == 0 || st.PagesFetched < st.DistinctPages {
		t.Fatalf("pages fetched %d < distinct %d", st.PagesFetched, st.DistinctPages)
	}
}

func TestCrawlRespectsRobots(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	// Seed every page directly so private ones are reachable even if no
	// public page links to them.
	var urls []string
	seeded := 0
	for pid, p := range w.Pages {
		urls = append(urls, w.URL(pid))
		if p.Private {
			seeded++
		}
	}
	if seeded == 0 {
		t.Fatal("the test web has no robots-disallowed page to seed")
	}
	c.Seed(urls)
	c.Run()
	for pid := range c.Pages() {
		if w.Pages[pid].Private {
			t.Fatalf("crawler fetched robots-disallowed page %s", w.URL(pid))
		}
	}
}

func TestCrawlDeterministic(t *testing.T) {
	w := testWeb()
	run := func() Stats {
		c := New(w, DefaultConfig())
		c.SeedFrontPages()
		return c.Run()
	}
	a, b := run(), run()
	if a.PagesFetched != b.PagesFetched || a.URLsExchanged != b.URLsExchanged ||
		a.ExchangeMessages != b.ExchangeMessages || a.DistinctPages != b.DistinctPages {
		t.Fatalf("same-seed crawls differ: %+v vs %+v", a, b)
	}
}

func TestCrawlNoDuplicateFetchesWithoutFailures(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	c.SeedFrontPages()
	st := c.Run()
	if st.DuplicateFetches != 0 {
		t.Fatalf("stable crawl produced %d duplicate fetches, want 0", st.DuplicateFetches)
	}
}

func TestBatchingReducesMessages(t *testing.T) {
	w := testWeb()
	run := func(batch int) Stats {
		cfg := DefaultConfig()
		cfg.BatchSize = batch
		c := New(w, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	small := run(1)
	large := run(64)
	if small.URLsExchanged == 0 {
		t.Skip("no cross-agent URLs in this configuration")
	}
	if large.ExchangeMessages >= small.ExchangeMessages {
		t.Fatalf("batch=64 sent %d messages, batch=1 sent %d; batching must reduce messages",
			large.ExchangeMessages, small.ExchangeMessages)
	}
}

func TestMostCitedSeedingSuppressesExchanges(t *testing.T) {
	w := testWeb()
	run := func(seeded int) Stats {
		cfg := DefaultConfig()
		cfg.SeedMostCited = seeded
		c := New(w, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	plain := run(0)
	seeded := run(100)
	if seeded.URLsSuppressed == 0 {
		t.Fatal("seeding most-cited URLs suppressed no exchanges")
	}
	if seeded.URLsExchanged >= plain.URLsExchanged {
		t.Fatalf("seeded crawl exchanged %d URLs, plain %d; seeding must reduce exchange",
			seeded.URLsExchanged, plain.URLsExchanged)
	}
}

func TestDNSCacheReducesQueries(t *testing.T) {
	w := testWeb()
	run := func(cache bool) Stats {
		cfg := DefaultConfig()
		cfg.UseDNSCache = cache
		c := New(w, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	cached := run(true)
	uncached := run(false)
	if cached.DNSQueries >= uncached.DNSQueries {
		t.Fatalf("cache: %d authoritative queries, no cache: %d", cached.DNSQueries, uncached.DNSQueries)
	}
	if cached.DNSHitRatio < 0.5 {
		t.Fatalf("DNS hit ratio %.2f, want ≥ 0.5 on a repeated-host workload", cached.DNSHitRatio)
	}
}

func TestAgentFailureRecovers(t *testing.T) {
	w := testWeb()
	cfg := DefaultConfig()
	cfg.Agents = 4
	c := New(w, cfg)
	c.SeedFrontPages()
	// Let agent 0 do its first drain, then fail it and finish the crawl.
	c.agents[0].drain()
	c.FailAgent(0)
	st := c.Run()
	if st.Coverage < 0.85 {
		t.Fatalf("coverage after agent failure = %.2f, want ≥ 0.85", st.Coverage)
	}
	if st.PerAgentFetches[0] != 0 {
		t.Fatalf("failed agent shows %d fetches in final stats", st.PerAgentFetches[0])
	}
}

func TestPolitenessNeverViolated(t *testing.T) {
	// With one agent and one thread per agent, successive fetches against
	// the same host must be spaced by at least the politeness delay. We
	// verify indirectly: the virtual duration of crawling a single large
	// host must be at least (pages-1) × delay.
	w := testWeb()
	var big *simweb.Host
	for _, h := range w.Hosts {
		if !h.Flaky && (big == nil || len(h.Pages) > len(big.Pages)) {
			big = h
		}
	}
	if big == nil || len(big.Pages) < 5 {
		t.Skip("no suitable host")
	}
	cfg := DefaultConfig()
	cfg.Agents = 1
	c := New(w, cfg)
	var urls []string
	for _, pid := range big.Pages {
		urls = append(urls, w.URL(pid))
	}
	c.Seed(urls)
	st := c.Run()
	fetchedFromBig := 0
	for pid := range c.Pages() {
		if w.Pages[pid].Host == big.ID {
			fetchedFromBig++
		}
	}
	minDuration := float64(fetchedFromBig-1) * politenessDelay
	if st.VirtualSeconds < minDuration {
		t.Fatalf("crawl of %d same-host pages took %.1fs virtual, politeness requires ≥ %.1fs",
			fetchedFromBig, st.VirtualSeconds, minDuration)
	}
}

func TestRecrawlConditionalRequests(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	c.SeedFrontPages()
	c.Run()
	st := c.Recrawl(5, false)
	if st.Pages == 0 {
		t.Fatal("recrawl considered no pages")
	}
	if st.NotModified == 0 {
		t.Fatal("recrawl saw no 304s; conditional requests not working")
	}
	if st.ConditionalRequests != st.NotModified+st.Refetched+st.Failures {
		t.Fatalf("request accounting inconsistent: %+v", st)
	}
}

func TestRecrawlSitemapsSkipRequests(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	c.SeedFrontPages()
	c.Run()
	plain := c.Recrawl(5, false)
	withMaps := c.Recrawl(5, true)
	if withMaps.SkippedViaSitemap == 0 {
		t.Skip("no sitemap hosts among crawled pages")
	}
	if withMaps.ConditionalRequests >= plain.ConditionalRequests {
		t.Fatalf("sitemaps did not reduce requests: %d vs %d",
			withMaps.ConditionalRequests, plain.ConditionalRequests)
	}
}

func TestRecrawlUpdatesChangedPages(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	c.SeedFrontPages()
	c.Run()
	st := c.Recrawl(90, false) // long gap: most pages changed
	if st.Refetched == 0 {
		t.Fatal("no pages refetched after 89 virtual days")
	}
	for _, p := range c.Pages() {
		if p.Day != 90 && p.LastMod > 1 {
			// Pages whose content changed must have been updated.
			if w.LastModified(p.PageID, 90) > p.LastMod {
				t.Fatalf("page %s stale after recrawl: lastmod %d, actual %d",
					p.URL, p.LastMod, w.LastModified(p.PageID, 90))
			}
		}
	}
}

// TestRecrawlReplayIdentical: every fetch of a pass draws from one rng,
// so the visiting order is part of the result. Two crawlers built from
// the same seed must report the same counts for both passes, every time
// — map iteration order must not reach them.
func TestRecrawlReplayIdentical(t *testing.T) {
	passes := func() [2]RecrawlStats {
		w := testWeb()
		c := New(w, DefaultConfig())
		c.SeedFrontPages()
		c.Run()
		return [2]RecrawlStats{c.Recrawl(15, false), c.Recrawl(30, true)}
	}
	want := passes()
	if want[0].ConditionalRequests == 0 || want[1].SkippedViaSitemap == 0 {
		t.Fatalf("passes made no requests or met no sitemap: %+v", want)
	}
	for replay := 1; replay <= 5; replay++ {
		if got := passes(); got != want {
			t.Fatalf("replay %d diverged from the first run:\n%+v\n%+v", replay, got, want)
		}
	}
}

func TestConsistentVsModChurn(t *testing.T) {
	// The crawler-level variant of experiment C2: count hosts that change
	// owner when one agent leaves a pool of 8.
	w := testWeb()
	hosts := make([]string, len(w.Hosts))
	for i, h := range w.Hosts {
		hosts[i] = h.Name
	}
	countMoved := func(policy AssignmentPolicy) int {
		cfg := DefaultConfig()
		cfg.Agents = 8
		cfg.Assignment = policy
		c := New(w, cfg)
		before := make(map[string]int, len(hosts))
		for _, h := range hosts {
			before[h] = c.assign.owner(h)
		}
		c.assign.removeAgent(7)
		moved := 0
		for _, h := range hosts {
			if before[h] != c.assign.owner(h) && before[h] != 7 {
				moved++
			}
		}
		// Hosts owned by the departed agent must move; count separately.
		for _, h := range hosts {
			if before[h] == 7 {
				moved++
			}
		}
		return moved
	}
	consistent := countMoved(AssignConsistent)
	mod := countMoved(AssignMod)
	if consistent >= mod {
		t.Fatalf("consistent hashing moved %d hosts, mod moved %d; expected far fewer", consistent, mod)
	}
}

func TestEmptySeedRunsCleanly(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	st := c.Run()
	if st.PagesFetched != 0 || st.Coverage != 0 {
		t.Fatalf("unseeded crawl fetched %d pages", st.PagesFetched)
	}
}

func TestFlakyHostsRetried(t *testing.T) {
	w := testWeb()
	c := New(w, DefaultConfig())
	c.SeedFrontPages()
	st := c.Run()
	if st.TransientRetries == 0 {
		t.Skip("no flaky hosts hit in this configuration")
	}
	// Retries should recover most transient failures: permanent failures
	// must stay well below retry volume.
	if st.FetchFailures > st.TransientRetries {
		t.Fatalf("failures %d exceed retries %d; retry logic ineffective", st.FetchFailures, st.TransientRetries)
	}
}

func TestRegionAffinityKeepsTrafficLocal(t *testing.T) {
	w := testWeb()
	run := func(policy AssignmentPolicy) Stats {
		cfg := DefaultConfig()
		cfg.Agents = 6
		cfg.Regions = 3
		cfg.Assignment = policy
		c := New(w, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	affinity := run(AssignRegionAffinity)
	blind := run(AssignMod)
	if affinity.WANBytes != 0 {
		t.Fatalf("region-affinity crawl moved %d bytes across regions, want 0", affinity.WANBytes)
	}
	if blind.WANBytes == 0 {
		t.Fatal("region-blind crawl moved no bytes across regions; accounting broken")
	}
	if affinity.Coverage < 0.85 {
		t.Fatalf("region-affinity coverage %.2f", affinity.Coverage)
	}
}

func TestRegionAffinityChurn(t *testing.T) {
	// Removing an agent must reassign its hosts within the same region.
	w := testWeb()
	cfg := DefaultConfig()
	cfg.Agents = 6
	cfg.Regions = 3
	cfg.Assignment = AssignRegionAffinity
	c := New(w, cfg)
	for _, h := range w.Hosts {
		owner := c.assign.owner(h.Name)
		if owner%3 != h.Region%3 {
			t.Fatalf("host %s (region %d) owned by agent %d (region %d)", h.Name, h.Region, owner, owner%3)
		}
	}
	c.assign.removeAgent(0) // region 0 still has agent 3
	for _, h := range w.Hosts {
		owner := c.assign.owner(h.Name)
		if owner == 0 {
			t.Fatal("removed agent still owns hosts")
		}
		if owner%3 != h.Region%3 {
			t.Fatalf("after churn: host %s (region %d) owned by out-of-region agent %d", h.Name, h.Region, owner)
		}
	}
}

func TestPriorityFrontierFrontLoadsQuality(t *testing.T) {
	// Seed a single page so discovery order matters: FIFO explores in
	// BFS order while the prioritized frontier follows citations.
	w := testWeb()
	var seeds []string
	for _, p := range w.Pages {
		if !p.Private && len(p.Links) >= 5 {
			seeds = append(seeds, w.URL(p.ID))
			if len(seeds) == 5 {
				break
			}
		}
	}
	run := func(priority bool) []int {
		cfg := DefaultConfig()
		cfg.Agents = 1 // one agent: a single global fetch order to compare
		cfg.PriorityFrontier = priority
		c := New(w, cfg)
		c.Seed(seeds)
		c.Run()
		return c.FetchOrder()
	}
	quality := func(order []int) float64 {
		// Total true in-degree captured in the first quarter of the crawl.
		n := len(order) / 4
		sum := 0
		for _, pid := range order[:n] {
			sum += w.Pages[pid].InDegree
		}
		return float64(sum)
	}
	fifo := run(false)
	prio := run(true)
	if len(fifo) == 0 || len(prio) == 0 {
		t.Fatal("empty crawls")
	}
	if quality(prio) <= quality(fifo) {
		t.Fatalf("priority frontier captured in-degree %.0f in its first quarter, FIFO %.0f; prioritization must front-load quality",
			quality(prio), quality(fifo))
	}
	// Coverage must not suffer.
	if len(prio) < len(fifo)*9/10 {
		t.Fatalf("priority crawl fetched %d pages, FIFO %d", len(prio), len(fifo))
	}
}
