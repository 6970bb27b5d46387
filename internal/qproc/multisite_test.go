package qproc

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"dwr/internal/cluster"
	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/selection"
)

// newMultiSite builds 3 sites in regions 0..2, each a full replica over
// the same corpus.
func newMultiSite(t *testing.T, policy RoutingPolicy, cacheTTL float64) *MultiSite {
	t.Helper()
	docs := corpus(21, 300, 200)
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	m := &MultiSite{
		Net:              cluster.NewNetwork(1, 3),
		Policy:           policy,
		CacheTTL:         cacheTTL,
		OffloadThreshold: 0.7,
	}
	for s := 0; s < 3; s++ {
		dp := partition.RoundRobinDocs(ids, 4)
		e, err := NewDocEngine(index.DefaultOptions(), docs, dp)
		if err != nil {
			t.Fatal(err)
		}
		m.Sites = append(m.Sites, NewSite(s, s, e, 256, 1000))
	}
	return m
}

func TestGeoRoutingPrefersNearestSite(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 0)
	for region := 0; region < 3; region++ {
		r := m.Submit([]string{"w0001"}, "w0001", region, 1, 10)
		if r.Failed {
			t.Fatalf("region %d query failed", region)
		}
		if r.Executor != region {
			t.Fatalf("region %d executed at site %d", region, r.Executor)
		}
	}
}

func TestGeoBeatsRoundRobinLatency(t *testing.T) {
	geo := newMultiSite(t, RouteGeo, 0)
	rr := newMultiSite(t, RouteRoundRobin, 0)
	var geoSum, rrSum float64
	const n = 150
	for i := 0; i < n; i++ {
		key := fmt.Sprintf("w%04d", i%50)
		// All clients in region 0: geo keeps execution local while
		// round-robin ships two thirds of the queries across the WAN.
		g := geo.Submit([]string{key}, key, 0, 1, 10)
		r := rr.Submit([]string{key}, key, 0, 1, 10)
		geoSum += g.LatencyMs
		rrSum += r.LatencyMs
	}
	if geoSum >= rrSum {
		t.Fatalf("geo mean latency %.2f not below round-robin %.2f", geoSum/n, rrSum/n)
	}
}

func TestCacheHitsServeFast(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 24)
	first := m.Submit([]string{"w0002"}, "w0002", 0, 1, 10)
	second := m.Submit([]string{"w0002"}, "w0002", 0, 2, 10)
	if first.FromCache {
		t.Fatal("first query hit an empty cache")
	}
	if !second.FromCache || second.Stale {
		t.Fatalf("repeat query not a fresh cache hit: %+v", second)
	}
	if second.LatencyMs >= first.LatencyMs {
		t.Fatalf("cache hit latency %.2f not below miss %.2f", second.LatencyMs, first.LatencyMs)
	}
	if len(second.Results) != len(first.Results) {
		t.Fatal("cached results differ in length")
	}
}

func TestCacheExpiresAfterTTL(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 2)
	m.Submit([]string{"w0002"}, "w0002", 0, 1, 10)
	late := m.Submit([]string{"w0002"}, "w0002", 0, 10, 10) // 9h later, TTL 2h
	if late.FromCache {
		t.Fatal("expired entry served as fresh")
	}
}

func TestStaleServingMasksTotalOutage(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 1)
	warm := m.Submit([]string{"w0003"}, "w0003", 0, 1, 10)
	if warm.Failed {
		t.Fatal("warmup failed")
	}
	// All sites' engines go down for hours 5..8, but the coordinator
	// process at site 0 stays reachable: model by outages on sites 1,2
	// and failing all processors of site 0's engine... simplest faithful
	// model: all execution sites down, coordinator up. Mark sites 1 and 2
	// fully out and site 0's engine processors down.
	m.Sites[1].Outages = []cluster.Outage{{Start: 5, End: 8}}
	m.Sites[2].Outages = []cluster.Outage{{Start: 5, End: 8}}
	for p := 0; p < m.Sites[0].Engine.K(); p++ {
		m.Sites[0].Engine.SetDown(p, true)
	}
	r := m.Submit([]string{"w0003"}, "w0003", 0, 6, 10)
	// The engine answers with zero live processors → empty results; the
	// coordinator falls back to the stale cached copy only on Failed.
	// With all processors down the engine returns an empty, degraded
	// answer rather than failing outright; both behaviours are
	// acceptable, but results must not be silently empty when a cached
	// copy exists.
	if !r.FromCache && len(r.Results) == 0 {
		t.Fatalf("total outage returned empty results despite cached answer: %+v", r)
	}
}

// TestStaleFallbackSetsStaleFlag pins the full stale-serving chain:
// a result cached at t=1 expires past the TTL, the fresh re-evaluation
// comes back empty because every query processor is down, and the
// coordinator then serves the expired copy — identical results, marked
// FromCache AND Stale, with Failed cleared. This is the deferred
// fallback in Submit, distinct from the fresh-hit path (Stale=false).
func TestStaleFallbackSetsStaleFlag(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 1) // TTL = 1 virtual hour
	warm := m.Submit([]string{"w0003"}, "w0003", 0, 1, 10)
	if warm.Failed || warm.FromCache || len(warm.Results) == 0 {
		t.Fatalf("warmup: %+v", warm)
	}
	// 9 hours later the entry is well past its TTL, and every processor
	// of every site's engine has failed: re-evaluation yields an empty
	// degraded answer.
	for _, s := range m.Sites {
		for p := 0; p < s.Engine.K(); p++ {
			s.Engine.SetDown(p, true)
		}
	}
	r := m.Submit([]string{"w0003"}, "w0003", 0, 10, 10)
	if r.Failed {
		t.Fatalf("stale fallback did not mask the outage: %+v", r)
	}
	if !r.FromCache || !r.Stale {
		t.Fatalf("fallback answer not flagged FromCache+Stale: FromCache=%v Stale=%v", r.FromCache, r.Stale)
	}
	if len(r.Results) != len(warm.Results) {
		t.Fatalf("stale answer has %d results, warm had %d", len(r.Results), len(warm.Results))
	}
	for i := range r.Results {
		if r.Results[i] != warm.Results[i] {
			t.Fatalf("stale answer diverged from the cached copy at rank %d", i)
		}
	}
	// Fresh-path sanity: a repeat within the TTL serves FromCache but
	// NOT Stale.
	m2 := newMultiSite(t, RouteGeo, 2)
	m2.Submit([]string{"w0005"}, "w0005", 0, 1, 10)
	fresh := m2.Submit([]string{"w0005"}, "w0005", 0, 1.5, 10)
	if !fresh.FromCache || fresh.Stale {
		t.Fatalf("fresh hit mis-flagged: FromCache=%v Stale=%v", fresh.FromCache, fresh.Stale)
	}
}

func TestFailoverToRemoteSite(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 0)
	m.Sites[0].Outages = []cluster.Outage{{Start: 0, End: 100}}
	r := m.Submit([]string{"w0004"}, "w0004", 0, 1, 10)
	if r.Failed {
		t.Fatal("query failed despite two live sites")
	}
	if r.Executor == 0 || r.Coordinator == 0 {
		t.Fatalf("down site used: coord=%d exec=%d", r.Coordinator, r.Executor)
	}
	if len(r.Results) == 0 {
		t.Fatal("failover returned no results")
	}
}

func TestAllSitesDownFails(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 0)
	for _, s := range m.Sites {
		s.Outages = []cluster.Outage{{Start: 0, End: 100}}
	}
	r := m.Submit([]string{"w0005"}, "w0005", 0, 1, 10)
	if !r.Failed {
		t.Fatal("query succeeded with every site down")
	}
}

func TestLoadAwareOffloadsPeaks(t *testing.T) {
	// Site 0 receives a burst far beyond its hourly capacity; load-aware
	// routing should divert the excess to sites 1 and 2 and keep queue
	// delays bounded compared to pure geo routing.
	run := func(policy RoutingPolicy) (execCounts [3]int, q99 float64) {
		m := newMultiSite(t, policy, 0)
		for _, s := range m.Sites {
			s.capacity = 200
		}
		var delays metrics.Sample
		for i := 0; i < 600; i++ {
			key := fmt.Sprintf("w%04d", i%97)
			r := m.Submit([]string{key}, key, 0, 1.5, 10) // all in hour 1
			if !r.Failed && r.Executor >= 0 {
				execCounts[r.Executor]++
				delays.Add(r.QueueMs)
			}
		}
		return execCounts, delays.Quantile(0.99)
	}
	geoCounts, geoQ99 := run(RouteGeo)
	loadCounts, loadQ99 := run(RouteLoadAware)
	if geoCounts[0] != 600 {
		t.Fatalf("geo routing spread the burst: %v", geoCounts)
	}
	if loadCounts[1] == 0 && loadCounts[2] == 0 {
		t.Fatalf("load-aware routing never offloaded: %v", loadCounts)
	}
	if loadQ99 >= geoQ99 {
		t.Fatalf("load-aware p99 queue %.2f not below geo %.2f", loadQ99, geoQ99)
	}
}

func TestIncrementalFirstBatchFaster(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 0)
	batches := m.QueryIncremental([]string{"w0001", "w0002"}, 0, 1, 10)
	if len(batches) != 3 {
		t.Fatalf("got %d batches, want 3 (one per site)", len(batches))
	}
	for i := 1; i < len(batches); i++ {
		if batches[i].AfterMs < batches[i-1].AfterMs {
			t.Fatal("batches not in arrival order")
		}
	}
	if batches[0].AfterMs >= batches[len(batches)-1].AfterMs {
		t.Fatal("first batch not earlier than last")
	}
	// The final batch must equal a direct full evaluation.
	direct := m.Sites[0].Engine.Query([]string{"w0001", "w0002"}, DocQueryOptions{K: 10, Stats: GlobalPrecomputed})
	sameRanking(t, direct.Results, batches[len(batches)-1].Results, "incremental final")
	// Early batches contain results (the user sees something early).
	if len(batches[0].Results) == 0 {
		t.Fatal("first incremental batch empty")
	}
}

func TestIncrementalSkipsDownSites(t *testing.T) {
	m := newMultiSite(t, RouteGeo, 0)
	m.Sites[1].Outages = []cluster.Outage{{Start: 0, End: 10}}
	batches := m.QueryIncremental([]string{"w0001"}, 0, 1, 10)
	if len(batches) != 2 {
		t.Fatalf("got %d batches with one site down, want 2", len(batches))
	}
	for _, b := range batches {
		if b.Site == 1 {
			t.Fatal("down site contributed a batch")
		}
	}
}

// TestMultiSiteStatsAggregatesSiteCounters pins the Stats() gather: the
// per-site engines' counter bundles (threshold-sharing waves, result
// cache hits/misses) must sum into the multi-site EngineStats, and the
// coordinator's own selection counters and outcome tally must surface
// through it. The SelectionCounters fold was once dropped here entirely
// — any counter bundle a site engine reports and the gather ignores
// under-reports forever. Outcomes are the coordinator's own: a query sent
// directly to a site engine that degrades there is not a routed query,
// and a routed one counts once however many site engines degraded it.
func TestMultiSiteStatsAggregatesSiteCounters(t *testing.T) {
	docs := corpus(21, 300, 200)
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	m := &MultiSite{Net: cluster.NewNetwork(1, 3), Policy: RouteGeo}
	for s := 0; s < 3; s++ {
		dp := partition.RoundRobinDocs(ids, 4)
		e, err := NewDocEngine(index.DefaultOptions(), docs, dp,
			WithResultCache(ResultCacheConfig{Capacity: 64}),
			WithThresholdSharing(true))
		if err != nil {
			t.Fatal(err)
		}
		m.Sites = append(m.Sites, NewSite(s, s, e, 256, 1000))
	}

	// Distinct per-site load: site i answers i+2 direct queries, so the
	// repeats hit each site's broker result cache a different number of
	// times and the per-site counters genuinely differ.
	for i, s := range m.Sites {
		for q := 0; q <= i+1; q++ {
			s.Engine.Query([]string{"w0001", "w0002"}, DocQueryOptions{K: 5})
		}
	}
	// Sites 1 and 2 lose a partition: one direct query degrades at site 1
	// alone, then every federated query degrades at both.
	m.Sites[1].Engine.SetDown(0, true)
	m.Sites[2].Engine.SetDown(0, true)
	if qr := m.Sites[1].Engine.Query([]string{"w0004"}, DocQueryOptions{K: 5}); !qr.Degraded {
		t.Fatalf("direct query with a partition down not degraded: %+v", qr)
	}
	// Federated queries move the coordinator's selection counters.
	const fed = 4
	for q := 0; q < fed; q++ {
		if r := m.QueryFederated([]string{"w0003"}, "w0003", 0, 1, 5); !r.Degraded {
			t.Fatalf("federated query %d over two degraded sites not degraded: %+v", q, r)
		}
	}

	var want EngineStats
	siteDegraded := 0
	for _, s := range m.Sites {
		es := s.Engine.Stats()
		siteDegraded += es.Degraded
		want.Threshold.Merge(es.Threshold)
		want.Selection.Merge(es.Selection)
		want.ResultCache.Hits += es.ResultCache.Hits
		want.ResultCache.Misses += es.ResultCache.Misses
	}
	if want.ResultCache.Hits == 0 || want.ResultCache.Misses == 0 {
		t.Fatalf("per-site load produced no cache traffic to aggregate: %+v", want.ResultCache)
	}
	if want.Threshold.Queries == 0 || want.Threshold.Waves == 0 {
		t.Fatalf("per-site load produced no threshold counters to aggregate: %+v", want.Threshold)
	}

	st := m.Stats()
	if st.ResultCache.Hits != want.ResultCache.Hits || st.ResultCache.Misses != want.ResultCache.Misses {
		t.Errorf("result-cache counters not summed: got %+v, want %+v", st.ResultCache, want.ResultCache)
	}
	if st.Threshold != want.Threshold {
		t.Errorf("threshold counters not summed: got %+v, want %+v", st.Threshold, want.Threshold)
	}
	if siteDegraded != 2*fed+1 || st.Degraded != fed || st.Failed != 0 {
		t.Errorf("outcomes (%d degraded, %d failed) with %d degraded at the site engines; want the %d routed queries once each",
			st.Degraded, st.Failed, siteDegraded, fed)
	}
	// The coordinator's selection counters pass through, merged with the
	// (currently zero-valued) per-site bundles.
	wantSel := m.sel
	wantSel.Merge(want.Selection)
	if st.Selection != wantSel {
		t.Errorf("selection counters not aggregated: got %+v, want %+v", st.Selection, wantSel)
	}
	if st.Selection.Queries != fed || st.Selection.FullFanout != fed {
		t.Errorf("federated queries not counted: %+v, want %d full-fanout queries", st.Selection, fed)
	}
	if st.Queries != fed {
		t.Errorf("Queries = %d, want the %d routed queries (site fan-out must not double-count)", st.Queries, fed)
	}
}

// TestMultiSiteCacheHitDrawsNoTick: the fault schedule is keyed by
// evaluated queries. Site 0 is out for tick 2 only, so the second
// evaluated query fails over — with or without a coordinator-cache hit
// served in between.
func TestMultiSiteCacheHitDrawsNoTick(t *testing.T) {
	secondEvaluated := func(ttl float64) SiteQueryResult {
		m := newMultiSite(t, RouteGeo, ttl)
		m.injector = faultsim.New(4).Window(faultsim.Window{Unit: 0, From: 2, To: 3})
		m.Submit([]string{"w0001"}, "w0001", 0, 1, 10)
		if ttl > 0 {
			if hit := m.Submit([]string{"w0001"}, "w0001", 0, 1, 10); !hit.FromCache {
				t.Fatalf("repeat not served from the coordinator cache: %+v", hit)
			}
		}
		return m.Submit([]string{"w0002"}, "w0002", 0, 1, 10)
	}
	plain, cached := secondEvaluated(0), secondEvaluated(1)
	if plain.Retries == 0 || cached.Retries != plain.Retries {
		t.Fatalf("second evaluated query spent %d retries behind a cache hit, %d without a cache; want equal and > 0",
			cached.Retries, plain.Retries)
	}
}

// TestSubmitBooksWANBytes: a remote execution moves the client message,
// the forwarded request and the response over the network, and the
// answer's byte ledger says so — the same ledger the federated path
// keeps.
func TestSubmitBooksWANBytes(t *testing.T) {
	m := newMultiSite(t, RouteRoundRobin, 0)
	q := []string{"w0001", "w0002"}
	m.Submit(q, "q", 0, 1, 10)
	r := m.Submit(q, "q", 0, 1, 10)
	if r.Coordinator != 0 || r.Executor != 1 || r.Err != nil {
		t.Fatalf("second round-robin query: coordinator %d, executor %d, err %v", r.Coordinator, r.Executor, r.Err)
	}
	engine := m.Sites[1].Engine.Query(q, DocQueryOptions{K: 10, Stats: GlobalPrecomputed}).BytesTransferred
	if want := engine + 64 + 128 + resultBytes(len(r.Results)); r.BytesTransferred != want {
		t.Fatalf("remote execution booked %d bytes, want %d (engine %d + client 64 + request 128 + response %d)",
			r.BytesTransferred, want, engine, resultBytes(len(r.Results)))
	}
}

// TestSubmitRefusingExecutorKeepsItsError pins what the one site call
// must not change: when the single executor's fail-fast engine refuses,
// the caller still sees that engine's ErrUnavailable and its work.
func TestSubmitRefusingExecutorKeepsItsError(t *testing.T) {
	m, _ := newFederatedMultiSite(t, 7, 4, 0, nil, []Option{WithFaultPolicy(FaultPolicy{Mode: FailFast})})
	m.Sites[0].Engine.SetDown(0, true)
	r := m.Submit([]string{"shared01"}, "shared01", 0, 1, 10)
	if !errors.Is(r.Err, ErrUnavailable) || r.ServersContacted != 1 || len(r.Results) != 0 {
		t.Fatalf("refusing executor: err=%v serversContacted=%d results=%d", r.Err, r.ServersContacted, len(r.Results))
	}
}

// TestMultiSiteConcurrentCallers drives one mediated MultiSite — result
// caching on, a recall sample on every pruned answer — from several
// goroutines at once (run under -race). Latencies may differ from a
// serial replay, the WAN model's RNG being order-dependent; results may
// not.
func TestMultiSiteConcurrentCallers(t *testing.T) {
	build := func() *MultiSite {
		m, stats := newFederatedMultiSite(t, 7, 4, 24, nil, []Option{WithResultCache(ResultCacheConfig{Capacity: 64})})
		m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 2}
		m.SampleEvery = 1
		m.Now = 1
		return m
	}
	const callers, each = 8, 50
	queries := topicalTestQueries(9, each, 4)
	serial := build()
	want := make([]QueryResult, len(queries))
	for i, q := range queries {
		want[i] = serial.QueryTopKWithin(q, 10, 1e9)
	}
	m := build()
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := 0; n < each; n++ {
				i := (g*7 + n) % len(queries)
				if got := m.QueryTopKWithin(queries[i], 10, 1e9); got.Err != nil || !reflect.DeepEqual(got.Results, want[i].Results) {
					t.Errorf("caller %d query %v: err=%v, results differ from the serial replay's", g, queries[i], got.Err)
				}
			}
		}(g)
	}
	wg.Wait()
	st := m.Stats()
	if st.Queries != callers*each || st.Selection.RecallSamples == 0 {
		t.Fatalf("stats count %d queries and %d recall samples after %d calls", st.Queries, st.Selection.RecallSamples, callers*each)
	}
}
