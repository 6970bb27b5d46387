package qproc

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"dwr/internal/cluster"
	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/selection"
)

// topicalDocs builds nSites disjoint sub-collections: site s owns docs
// whose vocabulary is "s<s>w<j>" plus a shared tail of "shared<j>"
// terms, so collection selection has real signal.
func topicalDocs(seed int64, nSites, perSite int) [][]index.Doc {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]index.Doc, nSites)
	for s := 0; s < nSites; s++ {
		docs := make([]index.Doc, perSite)
		for d := 0; d < perSite; d++ {
			l := 15 + rng.Intn(30)
			terms := make([]string, l)
			for j := range terms {
				if rng.Intn(5) == 0 {
					terms[j] = fmt.Sprintf("shared%02d", rng.Intn(20))
				} else {
					terms[j] = fmt.Sprintf("s%dw%02d", s, rng.Intn(40))
				}
			}
			docs[d] = index.Doc{Ext: s*10000 + d, Terms: terms}
		}
		out[s] = docs
	}
	return out
}

// newFederatedMultiSite builds nSites sites in distinct regions, each
// holding its own topical sub-collection (NOT replicas), plus per-site
// stats for building selectors. msOpts configure the multi-site broker,
// engOpts the per-site engines.
func newFederatedMultiSite(t *testing.T, seed int64, nSites int, cacheTTL float64, msOpts, engOpts []Option) (*MultiSite, []index.Stats) {
	t.Helper()
	siteDocs := topicalDocs(seed, nSites, 120)
	m := NewMultiSite(cluster.NewNetwork(1, nSites), RouteGeo, msOpts...)
	m.CacheTTL = cacheTTL
	var stats []index.Stats
	for s := 0; s < nSites; s++ {
		ids := make([]int, len(siteDocs[s]))
		for i, d := range siteDocs[s] {
			ids[i] = d.Ext
		}
		dp := partition.RoundRobinDocs(ids, 2)
		e, err := NewDocEngine(index.DefaultOptions(), siteDocs[s], dp, engOpts...)
		if err != nil {
			t.Fatal(err)
		}
		m.Sites = append(m.Sites, NewSite(s, s, e, 64, 1000))
		stats = append(stats, e.GlobalStats())
	}
	return m, stats
}

// coriTestMediator is a minimal qproc.Mediator over selection.CORI used
// by these tests (the full implementation lives in internal/mediator,
// which tests integration separately — importing it here would cycle).
// Like the real mediator, it only prunes when the selection score mass
// concentrates on the chosen subset: shared-vocabulary queries whose
// matches spread evenly over the sites fall back to full fan-out.
type coriTestMediator struct {
	c *selection.CORI
	n int
}

func (m coriTestMediator) Decide(terms []string, up []int) MediatorDecision {
	upSet := make(map[int]bool, len(up))
	for _, s := range up {
		upSet[s] = true
	}
	var sites []int
	total, share := 0.0, 0.0
	for _, sp := range m.c.RankScored(terms) {
		if sp.Score <= 0 || !upSet[sp.Part] {
			continue
		}
		total += sp.Score
		if len(sites) < m.n {
			sites = append(sites, sp.Part)
			share += sp.Score
		}
	}
	if len(sites) == 0 || len(sites) >= len(up) || total <= 0 {
		return MediatorDecision{FullFanout: true}
	}
	base := float64(len(sites)) / float64(len(up))
	conf := (share/total - base) / (1 - base)
	if conf < 0.5 {
		return MediatorDecision{FullFanout: true, Confidence: conf}
	}
	// Ascending, as the contract asks.
	for i := 1; i < len(sites); i++ {
		for j := i; j > 0 && sites[j] < sites[j-1]; j-- {
			sites[j], sites[j-1] = sites[j-1], sites[j]
		}
	}
	return MediatorDecision{Sites: sites, Confidence: conf}
}

// topicalTestQueries mixes single-site topical queries with shared-term
// queries that touch every site.
func topicalTestQueries(seed int64, n, nSites int) [][]string {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]string, n)
	for i := range out {
		if rng.Intn(4) == 0 {
			out[i] = []string{fmt.Sprintf("shared%02d", rng.Intn(20))}
			continue
		}
		s := rng.Intn(nSites)
		q := []string{fmt.Sprintf("s%dw%02d", s, rng.Intn(40))}
		if rng.Intn(2) == 0 {
			q = append(q, fmt.Sprintf("s%dw%02d", s, rng.Intn(40)))
		}
		out[i] = q
	}
	return out
}

// TestFederatedFullFanoutMatchesIncremental pins the contract that a
// federated query with no mediator merges exactly like
// QueryIncremental's final batch.
func TestFederatedFullFanoutMatchesIncremental(t *testing.T) {
	a, _ := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
	b, _ := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
	for _, q := range topicalTestQueries(8, 40, 4) {
		fr := a.QueryFederated(q, NormalizeQueryKey(q), 0, 1, 10)
		batches := b.QueryIncremental(q, 0, 1, 10)
		if len(batches) == 0 {
			t.Fatalf("no incremental batches for %v", q)
		}
		want := batches[len(batches)-1].Results
		if len(fr.Results) != len(want) {
			t.Fatalf("query %v: federated %d results, incremental %d", q, len(fr.Results), len(want))
		}
		for i := range want {
			if fr.Results[i] != want[i] {
				t.Fatalf("query %v rank %d: federated %+v, incremental %+v", q, i, fr.Results[i], want[i])
			}
		}
		if !fr.FullFanout || fr.SitesSkipped != 0 {
			t.Fatalf("query %v: no-mediator query not a full fan-out: %+v", q, fr)
		}
	}
}

// fingerprintFederated replays a fixed query stream on a fresh mediated
// multi-site system and fingerprints every result and counter.
func fingerprintFederated(t *testing.T, workers, cacheCap int, cacheTTL float64) uint64 {
	t.Helper()
	msOpts := []Option{WithWorkers(workers)}
	engOpts := []Option{WithWorkers(workers)}
	if cacheCap > 0 {
		engOpts = append(engOpts, WithResultCache(ResultCacheConfig{Capacity: cacheCap}))
	}
	m, stats := newFederatedMultiSite(t, 7, 4, cacheTTL, msOpts, engOpts)
	m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 2}
	h := fnv.New64a()
	for hour, q := range topicalTestQueries(9, 60, 4) {
		r := m.QueryFederated(q, NormalizeQueryKey(q), 0, float64(hour%24), 10)
		fmt.Fprintf(h, "q=%v cached=%v full=%v contacted=%d skipped=%d failed=%v\n",
			q, r.FromCache, r.FullFanout, r.SitesContacted, r.SitesSkipped, r.Failed)
		for _, res := range r.Results {
			fmt.Fprintf(h, "%d:%.17g ", res.Doc, res.Score)
		}
		fmt.Fprintln(h)
	}
	st := m.Stats()
	fmt.Fprintf(h, "sel=%s\n", st.Selection.String())
	return h.Sum64()
}

// TestFederatedDeterministicAcrossWorkersAndReplays is the mediated
// equivalence test at workers {1,4,16} with both cache levels: every
// configuration, replayed twice, must produce byte-identical results
// and counters.
func TestFederatedDeterministicAcrossWorkersAndReplays(t *testing.T) {
	for _, cache := range []struct {
		cap int
		ttl float64
	}{{0, 0}, {256, 24}} {
		var want uint64
		for i, workers := range []int{1, 4, 16, 1} { // trailing 1 = replay
			got := fingerprintFederated(t, workers, cache.cap, cache.ttl)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("cache=%+v workers=%d: fingerprint %x != %x", cache, workers, got, want)
			}
		}
	}
}

// TestFederatedMediatedVsExhaustive checks quality directly: topical
// queries answered by a 2-of-4 site subset must recall the exhaustive
// top-10 perfectly (their terms live at one site), and shared-term
// queries must fall back to full fan-out (CORI spreads their score mass
// over every site — but the test mediator prunes at a fixed budget, so
// here we only require the exhaustive merge to dominate).
func TestFederatedMediatedVsExhaustive(t *testing.T) {
	m, stats := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
	m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 2}
	mediatedUnderHalf := 0
	n := 0
	for hour, q := range topicalTestQueries(9, 60, 4) {
		r := m.QueryFederated(q, NormalizeQueryKey(q), 0, float64(hour%24), 10)
		exh := m.QueryExhaustiveResults(q, float64(hour%24), 10)
		n++
		if !r.FullFanout {
			if r.SitesContacted*2 < len(m.Sites)+1 {
				mediatedUnderHalf++
			}
			// Recall of the mediated answer against the exhaustive one.
			in := make(map[int]bool, len(r.Results))
			for _, res := range r.Results {
				in[res.Doc] = true
			}
			hit := 0
			for _, res := range exh {
				if in[res.Doc] {
					hit++
				}
			}
			if len(exh) > 0 && float64(hit)/float64(len(exh)) < 0.99 {
				t.Fatalf("query %v: mediated recall %d/%d", q, hit, len(exh))
			}
		} else {
			// Full fan-out must BE the exhaustive answer.
			if len(r.Results) != len(exh) {
				t.Fatalf("query %v: full fan-out %d results, exhaustive %d", q, len(r.Results), len(exh))
			}
			for i := range exh {
				if r.Results[i] != exh[i] {
					t.Fatalf("query %v rank %d: %+v != %+v", q, i, r.Results[i], exh[i])
				}
			}
		}
	}
	if mediatedUnderHalf == 0 {
		t.Fatal("no query was answered touching under half the sites")
	}
	st := m.Stats()
	if st.Selection.Mediated == 0 || st.Selection.SitesSkipped == 0 {
		t.Fatalf("selection counters not accumulated: %s", st.Selection.String())
	}
	if st.Selection.Queries != n {
		t.Fatalf("selection counted %d queries, drove %d", st.Selection.Queries, n)
	}
}

// TestFederatedDeadlineKeepsMediation: a deadline must not change which
// path a query takes. A mediated MultiSite driven through
// QueryTopKWithin with a budget nothing busts contacts the same site
// subsets and returns the same answers as QueryTopK.
func TestFederatedDeadlineKeepsMediation(t *testing.T) {
	build := func() *MultiSite {
		m, stats := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
		m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 2}
		return m
	}
	plain, budgeted := build(), build()
	for _, q := range topicalTestQueries(9, 60, 4) {
		want := qrFingerprint(plain.QueryTopK(q, 10))
		got := qrFingerprint(budgeted.QueryTopKWithin(q, 10, 1e9))
		if want != got {
			t.Fatalf("query %v diverged under a generous budget:\n%s\nvs\n%s", q, want, got)
		}
	}
	want, got := plain.Stats().Selection, budgeted.Stats().Selection
	if got != want || got.Mediated == 0 {
		t.Fatalf("selection under a deadline %s, without %s", got.String(), want.String())
	}
}

// TestFederatedOutageFallsBackToFullFanout: when the mediator's chosen
// site is inside an outage window it never enters the up set, and the
// query widens to the remaining sites instead of failing.
func TestFederatedOutageFallsBackToFullFanout(t *testing.T) {
	m, stats := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
	m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 1}
	m.Sites[2].Outages = []cluster.Outage{{Start: 0, End: 100}}
	q := []string{"s2w01"} // lives only at the down site
	r := m.QueryFederated(q, NormalizeQueryKey(q), 0, 5, 10)
	if r.Failed {
		t.Fatalf("query failed instead of falling back: %+v", r)
	}
	if r.SitesContacted == 0 {
		t.Fatalf("no sites contacted: %+v", r)
	}
	// Site 2 being down, its docs are unreachable — the answer comes
	// from shared-term overlap or is empty, but the query must not fail.
	for _, res := range r.Results {
		if res.Doc >= 20000 && res.Doc < 30000 {
			t.Fatalf("result %d came from the down site", res.Doc)
		}
	}
}

// TestFederatedInjectedFaultRetriesFullFanout: when injected faults
// kill every selected site, the query retries once as a full fan-out
// (fault-schedule attempt 1) and degrades instead of failing.
func TestFederatedInjectedFaultRetriesFullFanout(t *testing.T) {
	inj := faultsim.New(4).Unit(0, faultsim.Spec{Crash: true})
	m, stats := newFederatedMultiSite(t, 7, 4, 0, []Option{WithInjector(inj)}, nil)
	m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 1}
	q := []string{"s0w01"} // CORI selects site 0, which always crashes
	r := m.QueryFederated(q, NormalizeQueryKey(q), 0, 1, 10)
	if r.Failed {
		t.Fatalf("query failed despite three healthy sites: %+v", r)
	}
	if !r.FullFanout || r.Retries == 0 {
		t.Fatalf("expected a full fan-out retry, got %+v", r)
	}
	if !r.Degraded {
		t.Fatal("losing the owning site should degrade the answer")
	}
	st := m.Stats()
	if st.Selection.FullFanout == 0 {
		t.Fatalf("fallback not counted: %s", st.Selection.String())
	}
}

// TestFederatedChargesStraggler: a site that answers slowly delays the
// whole fan-out — the gather waits for its slowest site.
func TestFederatedChargesStraggler(t *testing.T) {
	run := func(inj *faultsim.Injector) SiteQueryResult {
		m, _ := newFederatedMultiSite(t, 7, 4, 0, []Option{WithInjector(inj)}, nil)
		return m.QueryFederated([]string{"shared01"}, "shared01", 0, 1, 10)
	}
	clean := run(faultsim.New(4))
	slow := run(faultsim.New(4).Unit(2, faultsim.Spec{SlowP: 1, SlowMeanMs: 5000}))
	if !slow.FullFanout || slow.Err != nil || slow.LatencyMs < clean.LatencyMs+1000 {
		t.Fatalf("a 5 s straggler site cost %.1f ms (%.1f ms with it, %.1f ms without; err %v)",
			slow.LatencyMs-clean.LatencyMs, slow.LatencyMs, clean.LatencyMs, slow.Err)
	}
}

// TestFederatedLostSiteDoesNoWork: a site the fault schedule has
// crashed cannot evaluate anything, so its engine must not be asked to.
func TestFederatedLostSiteDoesNoWork(t *testing.T) {
	inj := faultsim.New(4).Unit(2, faultsim.Spec{Crash: true})
	m, _ := newFederatedMultiSite(t, 7, 4, 0, []Option{WithInjector(inj)}, nil)
	r := m.QueryFederated([]string{"shared01"}, "shared01", 0, 1, 10)
	if !r.Degraded || r.Err != nil || r.SitesContacted != 4 {
		t.Fatalf("fan-out over a crashed site: %+v", r)
	}
	if n := m.Sites[2].Engine.Stats().Queries; n != 0 {
		t.Fatalf("the crashed site's engine evaluated %d queries", n)
	}
}

// TestFederatedFoldsRefusingSitesWork: a fail-fast site with a partition
// down refuses its share of the answer, which is therefore degraded —
// but the server it did contact was contacted, and the ledger says so.
func TestFederatedFoldsRefusingSitesWork(t *testing.T) {
	m, _ := newFederatedMultiSite(t, 7, 4, 0, nil, []Option{WithFaultPolicy(FaultPolicy{Mode: FailFast})})
	m.Sites[2].Engine.SetDown(0, true)
	r := m.QueryFederated([]string{"shared01"}, "shared01", 0, 1, 10)
	if r.ServersContacted != 7 || !r.Degraded || r.Err != nil || len(r.Results) == 0 {
		t.Fatalf("4 sites x 2 partitions, one down at a fail-fast site: serversContacted=%d degraded=%v err=%v results=%d",
			r.ServersContacted, r.Degraded, r.Err, len(r.Results))
	}
}

// TestFederatedCacheKeyEncodesSelection: answers computed from
// different site subsets must not collide in the coordinator cache.
func TestFederatedCacheKeyEncodesSelection(t *testing.T) {
	a := FederatedCacheKey("w1 w2", 10, []int{0, 2}, false)
	b := FederatedCacheKey("w1 w2", 10, []int{0, 3}, false)
	c := FederatedCacheKey("w1 w2", 10, nil, true)
	if a == b || a == c || b == c {
		t.Fatalf("cache keys collide: %q %q %q", a, b, c)
	}
}

// TestFederatedCachedReplayIdentical: with the coordinator cache on,
// repeat queries serve from cache and remain byte-identical to the
// first answer.
func TestFederatedCachedReplayIdentical(t *testing.T) {
	m, stats := newFederatedMultiSite(t, 7, 4, 24, nil, nil)
	m.mediator = coriTestMediator{c: selection.NewCORI(stats), n: 2}
	q := []string{"s1w03"}
	first := m.QueryFederated(q, NormalizeQueryKey(q), 0, 1, 10)
	second := m.QueryFederated(q, NormalizeQueryKey(q), 0, 2, 10)
	if !second.FromCache {
		t.Fatalf("repeat query missed the cache: %+v", second)
	}
	if len(first.Results) != len(second.Results) {
		t.Fatalf("cached answer differs in length")
	}
	for i := range first.Results {
		if first.Results[i] != second.Results[i] {
			t.Fatalf("rank %d: %+v != %+v", i, first.Results[i], second.Results[i])
		}
	}
}
