package experiments

import (
	"fmt"

	"dwr/internal/chash"
	"dwr/internal/crawler"
	"dwr/internal/metrics"
	"dwr/internal/queueing"
	"dwr/internal/simweb"
)

// Claim1CapacityPlan (C1) re-derives the Section 1 back-of-the-envelope
// arithmetic: 20 billion pages → ≈3,000 machines per cluster, ≈10
// replicas, ≈30,000 machines, >$100M; and the 2010 projection of
// ≈50,000-machine clusters and ≈1.5M machines overall.
func Claim1CapacityPlan() *Result {
	r := newResult("C1")
	p2007 := queueing.Derive(queueing.DefaultParams())
	p2010 := queueing.Project(queueing.DefaultParams(), 16.7, 3)
	t := metrics.NewTable("derived deployment plans",
		"scenario", "index (TB)", "nodes/cluster", "replicas", "total nodes", "cost (M$)")
	t.AddRow("2007 (paper §1)", p2007.IndexBytes/1e12, p2007.NodesPerCluster, p2007.Replicas, p2007.TotalNodes, p2007.CostUSD/1e6)
	t.AddRow("2010 projection", p2010.IndexBytes/1e12, p2010.NodesPerCluster, p2010.Replicas, p2010.TotalNodes, p2010.CostUSD/1e6)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"nodes_per_cluster": float64(p2007.NodesPerCluster),
		"replicas":          float64(p2007.Replicas),
		"total_nodes":       float64(p2007.TotalNodes),
		"cost_musd":         p2007.CostUSD / 1e6,
		"total_2010":        float64(p2010.TotalNodes),
	}
	r.Notes = append(r.Notes, "paper: ≈3,000/cluster, ≥10 replicas, ≥30,000 machines, >$100M; 2010: 50,000-machine clusters, ≥1.5M machines")
	return r
}

// Claim2ConsistentHashing (C2) measures host reassignment churn when one
// crawling agent joins or leaves a pool of 20, under modulo hashing vs
// consistent hashing (UbiCrawler).
func Claim2ConsistentHashing() *Result {
	r := newResult("C2")
	const agents, hosts = 20, 50000
	keys := make([]string, hosts)
	for i := range keys {
		keys[i] = fmt.Sprintf("h%05d.example", i)
	}
	// The assigners crawler.New installs, over agent IDs 0..n-1.
	over := func(a chash.Assigner, n int) chash.Assigner {
		for id := 0; id < n; id++ {
			a.Add(id)
		}
		return a
	}
	modBefore, modJoin, modLeave := over(&chash.Mod{}, agents), over(&chash.Mod{}, agents+1), over(&chash.Mod{}, agents-1)
	ringBefore, ringJoin, ringLeave := over(chash.NewRing(), agents), over(chash.NewRing(), agents+1), over(chash.NewRing(), agents-1)

	t := metrics.NewTable("fraction of hosts reassigned on membership change",
		"event", "mod-hash", "consistent-hash", "ideal")
	join := [2]float64{
		float64(chash.Moved(modBefore, modJoin, keys)) / hosts,
		float64(chash.Moved(ringBefore, ringJoin, keys)) / hosts,
	}
	leave := [2]float64{
		float64(chash.Moved(modBefore, modLeave, keys)) / hosts,
		float64(chash.Moved(ringBefore, ringLeave, keys)) / hosts,
	}
	t.AddRow("agent joins (20→21)", join[0], join[1], 1.0/21)
	t.AddRow("agent leaves (20→19)", leave[0], leave[1], 1.0/20)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"mod_join":   join[0],
		"ring_join":  join[1],
		"mod_leave":  leave[0],
		"ring_leave": leave[1],
	}
	r.Notes = append(r.Notes, "paper: 'with consistent hashing, new agents enter the crawling system without re-hashing all the server names'")
	return r
}

// crawlWeb builds the crawling experiment web (distinct from the query
// fixture: crawling wants more hosts, fewer pages each).
func crawlWeb() *simweb.Web {
	cfg := simweb.DefaultConfig()
	cfg.Hosts = 150
	cfg.MaxPages = 50
	cfg.VocabSize = 2000
	return simweb.New(cfg)
}

// Claim3URLExchange (C3) quantifies the three URL-exchange optimizations
// of Section 3: host-affinity assignment exploits link locality, batching
// cuts message count, and pre-seeding the most-cited URLs suppresses the
// power-law head of the exchange traffic.
func Claim3URLExchange() *Result {
	r := newResult("C3")
	w := crawlWeb()
	run := func(batch, seedTop int) crawler.Stats {
		cfg := crawler.DefaultConfig()
		cfg.BatchSize = batch
		cfg.SeedMostCited = seedTop
		c := crawler.New(w, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	base := run(1, 0)
	batched := run(64, 0)
	seeded := run(64, 200)

	totalLinks := 0
	for _, p := range w.Pages {
		totalLinks += len(p.Links)
	}
	t := metrics.NewTable("exchange traffic per configuration",
		"configuration", "URLs exchanged", "messages", "suppressed by seeding")
	t.AddRow("batch=1", base.URLsExchanged, base.ExchangeMessages, base.URLsSuppressed)
	t.AddRow("batch=64", batched.URLsExchanged, batched.ExchangeMessages, batched.URLsSuppressed)
	t.AddRow("batch=64 + top-200 seeded", seeded.URLsExchanged, seeded.ExchangeMessages, seeded.URLsSuppressed)
	r.Tables = append(r.Tables, t)

	loc := metrics.NewTable("link locality leverage", "metric", "value")
	loc.AddRow("total links on the web", totalLinks)
	loc.AddRow("URLs exchanged (host-affinity assignment)", base.URLsExchanged)
	loc.AddRow("exchange fraction", float64(base.URLsExchanged)/float64(totalLinks))
	r.Tables = append(r.Tables, loc)
	r.Values = map[string]float64{
		"messages_batch1":   float64(base.ExchangeMessages),
		"messages_batch64":  float64(batched.ExchangeMessages),
		"urls_plain":        float64(batched.URLsExchanged),
		"urls_seeded":       float64(seeded.URLsExchanged),
		"suppressed":        float64(seeded.URLsSuppressed),
		"exchange_fraction": float64(base.URLsExchanged) / float64(totalLinks),
	}
	r.Notes = append(r.Notes, "host-level assignment means intra-host links (the majority) never cross agents; batching divides messages; seeding suppresses the most-cited URLs")
	return r
}

// Claim4DNSCache (C4) shows DNS as a crawler bottleneck and caching as
// the standard mitigation.
func Claim4DNSCache() *Result {
	r := newResult("C4")
	w := crawlWeb()
	run := func(useCache bool) crawler.Stats {
		cfg := crawler.DefaultConfig()
		cfg.UseDNSCache = useCache
		c := crawler.New(w, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	cached := run(true)
	uncached := run(false)
	t := metrics.NewTable("authoritative DNS queries during a full crawl",
		"configuration", "DNS queries", "hit ratio", "pages fetched")
	t.AddRow("no cache", uncached.DNSQueries, "-", uncached.PagesFetched)
	t.AddRow("TTL cache", cached.DNSQueries, cached.DNSHitRatio, cached.PagesFetched)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"queries_nocache": float64(uncached.DNSQueries),
		"queries_cache":   float64(cached.DNSQueries),
		"hit_ratio":       cached.DNSHitRatio,
	}
	r.Notes = append(r.Notes, "paper: 'DNS is frequently a bottleneck ... a common solution is to cache DNS lookup results'")
	return r
}

// Claim5Coverage (C5) exercises the crawler against the open Web's
// hostility: flaky servers, broken markup, robots, politeness — and
// reports coverage, plus the freshness economics of conditional requests
// and sitemaps on re-crawl.
func Claim5Coverage() *Result {
	r := newResult("C5")
	w := crawlWeb()
	c := crawler.New(w, crawler.DefaultConfig())
	c.SeedFrontPages()
	st := c.Run()

	t := metrics.NewTable("full crawl", "metric", "value")
	t.AddRow("crawlable pages", w.CrawlablePages())
	t.AddRow("distinct pages fetched", st.DistinctPages)
	t.AddRow("coverage", st.Coverage)
	t.AddRow("transient retries", st.TransientRetries)
	t.AddRow("permanent failures", st.FetchFailures)
	t.AddRow("robots.txt fetches", st.RobotsFetches)
	t.AddRow("robots-skipped URLs", st.RobotsSkipped)
	t.AddRow("virtual crawl seconds", st.VirtualSeconds)
	r.Tables = append(r.Tables, t)

	plain := c.Recrawl(15, false)
	// Recrawl again from the updated state at a later day for sitemaps.
	maps := c.Recrawl(30, true)
	rc := metrics.NewTable("incremental re-crawl", "pass", "pages", "requests", "304s", "refetched", "skipped via sitemap")
	rc.AddRow("day 15, If-Modified-Since", plain.Pages, plain.ConditionalRequests, plain.NotModified, plain.Refetched, plain.SkippedViaSitemap)
	rc.AddRow("day 30, + sitemaps", maps.Pages, maps.ConditionalRequests, maps.NotModified, maps.Refetched, maps.SkippedViaSitemap)
	r.Tables = append(r.Tables, rc)
	r.Values = map[string]float64{
		"coverage":        st.Coverage,
		"retries":         float64(st.TransientRetries),
		"sitemap_skipped": float64(maps.SkippedViaSitemap),
		"not_modified":    float64(plain.NotModified),
	}
	r.Notes = append(r.Notes, "paper: crawlers must tolerate transient failures and slow links 'to be able to cover the Web to a large extent'")
	return r
}
