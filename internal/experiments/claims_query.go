package experiments

import (
	"fmt"

	"dwr/internal/cache"
	"dwr/internal/cluster"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/replication"
)

// newMultiSite builds an n-site replica system over the fixture corpus.
func newFixtureMultiSite(n int, policy qproc.RoutingPolicy, ttl float64, hourlyCap int) *qproc.MultiSite {
	f := sharedFixture()
	m := &qproc.MultiSite{
		Net:              cluster.NewNetwork(1, n),
		Policy:           policy,
		CacheTTL:         ttl,
		OffloadThreshold: 0.7,
	}
	for s := 0; s < n; s++ {
		dp := partition.RoundRobinDocs(index.DocIDs(f.docs), 4)
		e, err := qproc.NewDocEngine(index.DefaultOptions(), f.docs, dp)
		if err != nil {
			panic(err)
		}
		m.Sites = append(m.Sites, qproc.NewSite(s, s, e, 4096, hourlyCap))
	}
	return m
}

// Claim10Caching (C10) compares LRU, LFU, and SDC hit ratios on the
// Zipfian query log, and shows stale cache entries masking a total
// query-processor outage.
func Claim10Caching() *Result {
	f := sharedFixture()
	r := newResult("C10")

	// Hit ratios on the full log replayed in arrival order; static keys
	// for SDC come from the training days' most popular queries.
	counts := make(map[string]int)
	for _, q := range f.train.Queries {
		counts[q.Key]++
	}
	type kc struct {
		k string
		c int
	}
	var pop []kc
	for k, c := range counts {
		pop = append(pop, kc{k, c})
	}
	for i := 1; i < len(pop); i++ { // insertion sort by count desc (small n)
		for j := i; j > 0 && (pop[j].c > pop[j-1].c || (pop[j].c == pop[j-1].c && pop[j].k < pop[j-1].k)); j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
	const capTotal = 400
	staticKeys := make([]string, 0, capTotal/2)
	for i := 0; i < len(pop) && i < capTotal/2; i++ {
		staticKeys = append(staticKeys, pop[i].k)
	}

	replay := func(c cache.Cache[int]) float64 {
		for i, q := range f.test.Queries {
			if _, ok := c.Get(q.Key); !ok {
				c.Put(q.Key, 1, float64(i))
			}
		}
		return cache.HitRatio(c)
	}
	lru := replay(cache.NewLRU[int](capTotal))
	lfu := replay(cache.NewLFU[int](capTotal))
	sdc := replay(cache.NewSDC[int](staticKeys, capTotal/2))

	t := metrics.NewTable(fmt.Sprintf("hit ratio on %d test queries (capacity %d)", len(f.test.Queries), capTotal),
		"policy", "hit ratio")
	t.AddRow("LRU", lru)
	t.AddRow("LFU", lfu)
	t.AddRow("SDC (static=train head)", sdc)
	r.Tables = append(r.Tables, t)

	// Failure masking: warm a multi-site cache, kill every processor,
	// measure answered fraction with and without stale serving.
	mask := func(ttl float64) (answered int) {
		m := newFixtureMultiSite(1, qproc.RouteGeo, ttl, 0)
		keys := make([]string, 0, 50)
		for _, q := range f.test.Queries[:50] {
			m.Submit(q.Terms, q.Key, 0, 1, 10)
			keys = append(keys, q.Key)
		}
		for p := 0; p < m.Sites[0].Engine.K(); p++ {
			m.Sites[0].Engine.SetDown(p, true)
		}
		for i, q := range f.test.Queries[:50] {
			res := m.Submit(q.Terms, keys[i], 0, 30, 10) // 29h later: stale
			if len(res.Results) > 0 {
				answered++
			}
		}
		return answered
	}
	withStale := mask(1) // TTL 1h: everything stale by hour 30, but kept
	noCache := mask(0)
	fm := metrics.NewTable("queries answered during a total processor outage (of 50 warm queries)",
		"configuration", "answered")
	fm.AddRow("no cache", noCache)
	fm.AddRow("stale-serving cache", withStale)
	r.Tables = append(r.Tables, fm)

	// Prefetching (Fagni et al., Lempel & Moran — the works the paper
	// cites alongside caching): when page 1 of a query's results is
	// computed, page 2 is prefetched into the cache. Measured on the
	// follow-up (page-2) requests that Zipf-popular queries generate.
	prefetchHit := func(prefetch bool) float64 {
		c := cache.NewLRU[int](capTotal)
		hits, total := 0, 0
		rng := 0
		for i, q := range f.test.Queries {
			if _, ok := c.Get(q.Key + "#p1"); !ok {
				c.Put(q.Key+"#p1", 1, float64(i))
				if prefetch {
					c.Put(q.Key+"#p2", 1, float64(i))
				}
			}
			// Every third query is followed by a page-2 request.
			rng++
			if rng%3 == 0 {
				total++
				if _, ok := c.Get(q.Key + "#p2"); ok {
					hits++
				} else {
					c.Put(q.Key+"#p2", 1, float64(i))
				}
			}
		}
		if total == 0 {
			return 0
		}
		return float64(hits) / float64(total)
	}
	pf := metrics.NewTable("page-2 hit ratio with and without result prefetching", "configuration", "hit ratio")
	noPf := prefetchHit(false)
	withPf := prefetchHit(true)
	pf.AddRow("no prefetching", noPf)
	pf.AddRow("prefetch page 2 on page-1 computation", withPf)
	r.Tables = append(r.Tables, pf)

	r.Values = map[string]float64{
		"lru": lru, "lfu": lfu, "sdc": sdc,
		"masked":      float64(withStale),
		"unmasked":    float64(noCache),
		"prefetch":    withPf,
		"no_prefetch": noPf,
	}
	r.Notes = append(r.Notes, "paper: 'upon query processor failures, the system returns cached results'; SDC is the authors' static+dynamic design")
	return r
}

// Claim11Replication (C11) tabulates availability versus replication
// degree and exercises the three replication mechanisms under failures.
func Claim11Replication() *Result {
	r := newResult("C11")
	t := metrics.NewTable("availability of r replicas (per-replica availability a)",
		"a \\ r", "1", "2", "3", "4")
	for _, a := range []float64{0.9, 0.95, 0.99} {
		t.AddRow(fmt.Sprintf("%.2f", a),
			replication.Availability(a, 1), replication.Availability(a, 2),
			replication.Availability(a, 3), replication.Availability(a, 4))
	}
	r.Tables = append(r.Tables, t)

	// Mechanisms under a failure storm: write, fail minority, verify.
	pb := replication.NewPrimaryBackup(3)
	pb.Write("user", "v1")
	pb.Fail(0)
	pbVal, pbErr := pb.Read("user")

	q := replication.NewQuorum(3, 2, 2)
	q.Write("user", "v1")
	q.Fail(1)
	qVal, _, qErr := q.Read("user")

	l := replication.NewLog(5)
	l.Propose("op1")
	l.Fail(0)
	l.Fail(1)
	_, lErr := l.Propose("op2")

	m := metrics.NewTable("mechanism survival of minority failures",
		"mechanism", "failure injected", "state preserved", "still writable")
	m.AddRow("primary-backup (3)", "primary crash", pbErr == nil && pbVal == "v1", pb.Write("user", "v2") == nil)
	m.AddRow("quorum 2/2 of 3", "1 replica crash", qErr == nil && qVal == "v1", q.Write("user", "v2") == nil)
	m.AddRow("replicated log (5)", "2 replica crashes", len(l.Committed()) == 2, lErr == nil)
	r.Tables = append(r.Tables, m)
	r.Values = map[string]float64{
		"avail_90_3":   replication.Availability(0.9, 3),
		"pb_survived":  boolTo01(pbErr == nil && pbVal == "v1"),
		"q_survived":   boolTo01(qErr == nil && qVal == "v1"),
		"log_progress": boolTo01(lErr == nil),
	}
	r.Notes = append(r.Notes, "paper: 'having all query processors storing the same data ... achieves the best availability level possible ... also reducing the total storage capacity'")
	return r
}

// Claim12MultiSiteRouting (C12) measures geographic routing against
// region-blind routing, and hourly offloading of a peaking region.
func Claim12MultiSiteRouting() *Result {
	f := sharedFixture()
	r := newResult("C12")

	// Geo vs round-robin on the real log (regions + hours).
	replay := func(policy qproc.RoutingPolicy) (mean float64) {
		m := newFixtureMultiSite(3, policy, 0, 0)
		var lat metrics.Welford
		for _, q := range f.test.Queries[:1200] {
			res := m.Submit(q.Terms, q.Key, q.Region%3, q.Time(), 10)
			if !res.Failed {
				lat.Add(res.LatencyMs)
			}
		}
		return lat.Mean()
	}
	geo := replay(qproc.RouteGeo)
	rr := replay(qproc.RouteRoundRobin)
	t := metrics.NewTable("mean query latency by routing policy", "policy", "mean latency (ms)")
	t.AddRow("geographic (nearest site)", geo)
	t.AddRow("round-robin (region-blind)", rr)
	r.Tables = append(r.Tables, t)

	// Offloading: replay a peak hour of region-0 queries against geo vs
	// load-aware routing with tight site capacity.
	peak := func(policy qproc.RoutingPolicy) (p99Queue float64, offloaded int) {
		m := newFixtureMultiSite(3, policy, 0, 300)
		var qd metrics.Sample
		for i, q := range f.test.Queries {
			if i >= 900 {
				break
			}
			res := m.Submit(q.Terms, q.Key, 0, 5.5, 10) // all in hour 5
			if res.Failed {
				continue
			}
			qd.Add(res.QueueMs)
			if res.Executor != res.Coordinator {
				offloaded++
			}
		}
		return qd.Quantile(0.99), offloaded
	}
	geoQ, geoOff := peak(qproc.RouteGeo)
	loadQ, loadOff := peak(qproc.RouteLoadAware)
	o := metrics.NewTable("peak-hour congestion (900 queries into one region, site capacity 300/h)",
		"policy", "p99 queue delay (ms)", "queries offloaded")
	o.AddRow("geographic", geoQ, geoOff)
	o.AddRow("load-aware offloading", loadQ, loadOff)
	r.Tables = append(r.Tables, o)

	// Broker hierarchy: with many partitions, a flat coordinator merges
	// every partition's top-k; a fanout-4 tree caps any single
	// coordinator's merge work — "a hierarchy of coordinators" (§5).
	const parts, k = 64, 10
	var lists [][]rank.Result
	for p := 0; p < parts; p++ {
		var l []rank.Result
		for i := 0; i < k; i++ {
			l = append(l, rank.Result{Doc: p*1000 + i, Score: float64((p*31+i*7)%100) / 100})
		}
		rank.SortResults(l)
		lists = append(lists, l)
	}
	flatRes := rank.MergeResults(k, lists...)
	treeRes, maxMerged := mergeTree(k, 4, lists)
	hb := metrics.NewTable("broker merge bottleneck (64 partitions, k=10)",
		"organization", "items merged at the bottleneck coordinator", "result identical")
	hb.AddRow("flat coordinator", flatMergeCost(lists), "-")
	hb.AddRow("fanout-4 hierarchy", maxMerged, rank.Overlap(flatRes, treeRes, k) == 1)
	r.Tables = append(r.Tables, hb)
	r.Values = map[string]float64{
		"geo_latency": geo,
		"rr_latency":  rr,
		"geo_p99":     geoQ,
		"load_p99":    loadQ,
		"offloaded":   float64(loadOff),
	}
	r.Notes = append(r.Notes, "paper: 'it is also possible to offload a server from a busy area by re-routing some queries to query processors in less busy areas'")
	return r
}

// mergeTree merges per-partition top-k lists through a hierarchy of
// coordinators with the given fanout (≥ 2) — Section 5's remedy when "the
// coordinator may become a bottleneck while merging the results from a
// great number of query processors". The result equals a flat merge
// (top-k merging is associative); the second return value is the
// largest number of result items any single coordinator had to merge,
// the bottleneck measure a hierarchy reduces from Σ|lists| to ≈fanout·k.
func mergeTree(k, fanout int, lists [][]rank.Result) ([]rank.Result, int) {
	if len(lists) == 0 {
		return nil, 0
	}
	maxMerged := 0
	for {
		var next [][]rank.Result
		for i := 0; i < len(lists); i += fanout {
			group := lists[i:min(i+fanout, len(lists))]
			maxMerged = max(maxMerged, flatMergeCost(group))
			next = append(next, rank.MergeResults(k, group...))
		}
		if len(next) == 1 {
			return next[0], maxMerged
		}
		lists = next
	}
}

// flatMergeCost returns the number of items a single flat coordinator
// merges for the given lists.
func flatMergeCost(lists [][]rank.Result) int {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	return n
}

// Claim13Incremental (C13) measures incremental query processing: first
// results arrive at the fastest site's latency; the final merged answer
// matches a full evaluation.
func Claim13Incremental() *Result {
	f := sharedFixture()
	r := newResult("C13")
	m := newFixtureMultiSite(3, qproc.RouteGeo, 0, 0)
	var first, last metrics.Welford
	var converged int
	n := 0
	for _, q := range f.test.Queries[:300] {
		batches := m.QueryIncremental(q.Terms, q.Region%3, q.Time(), 10)
		if len(batches) == 0 {
			continue
		}
		n++
		first.Add(batches[0].AfterMs)
		last.Add(batches[len(batches)-1].AfterMs)
		direct := m.Sites[0].Engine.Query(q.Terms, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
		if rank.Overlap(direct.Results, batches[len(batches)-1].Results, 10) == 1 {
			converged++
		}
	}
	t := metrics.NewTable("incremental delivery", "metric", "value")
	t.AddRow("queries", n)
	t.AddRow("mean first-batch latency (ms)", first.Mean())
	t.AddRow("mean final-batch latency (ms)", last.Mean())
	t.AddRow("speedup to first results", last.Mean()/first.Mean())
	t.AddRow("final answers equal to full evaluation", converged)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"first_ms":  first.Mean(),
		"last_ms":   last.Mean(),
		"converged": float64(converged) / float64(n),
	}
	r.Notes = append(r.Notes, "paper: 'the faster query processors provide an initial set of results ... users continuously obtain new results'")
	return r
}
