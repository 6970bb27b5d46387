package qproc

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"dwr/internal/cluster"
	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
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
// holding its own topical sub-collection (NOT replicas). msOpts
// configure the multi-site broker (WithMediator for the mediated path),
// engOpts the per-site engines.
func newFederatedMultiSite(t *testing.T, seed int64, nSites int, cacheTTL float64, msOpts, engOpts []Option) *MultiSite {
	t.Helper()
	siteDocs := topicalDocs(seed, nSites, 120)
	m := NewMultiSite(cluster.NewNetwork(1), RouteGeo, msOpts...)
	m.CacheTTL = cacheTTL
	for s := 0; s < nSites; s++ {
		dp := partition.RoundRobinDocs(index.DocIDs(siteDocs[s]), 2)
		e, err := NewDocEngine(index.DefaultOptions(), siteDocs[s], dp, engOpts...)
		if err != nil {
			t.Fatal(err)
		}
		m.Sites = append(m.Sites, NewSite(s, s, e, 64, 1000))
	}
	return m
}

// mediated is the mediator the federated tests share: two sites per
// query at most, pruning only when half the selection score mass beyond
// a uniform spread sits on them.
var mediated = []Option{WithMediator(2, 0.5)}

// decideIDs runs the mediator's decision over the sites named by up and
// returns the chosen site IDs (nil: full fan-out) and the confidence.
func decideIDs(m *MultiSite, terms []string, up ...int) ([]int, float64) {
	ups := make([]*Site, len(up))
	for i, id := range up {
		ups[i] = m.Sites[id]
	}
	sel, conf := m.decide(terms, ups)
	var ids []int
	for _, s := range sel {
		ids = append(ids, s.ID)
	}
	return ids, conf
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
	a := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
	b := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
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
// multi-site system at GOMAXPROCS procs and fingerprints every result
// and counter.
func fingerprintFederated(t *testing.T, procs, cacheCap int, cacheTTL float64) uint64 {
	t.Helper()
	setProcs(t, procs)
	var engOpts []Option
	if cacheCap > 0 {
		engOpts = append(engOpts, WithResultCache(ResultCacheConfig{Capacity: cacheCap}))
	}
	m := newFederatedMultiSite(t, 7, 4, cacheTTL, mediated, engOpts)
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
// equivalence test at GOMAXPROCS {1,4,16} with both cache levels: every
// configuration, replayed twice, must produce byte-identical results
// and counters.
func TestFederatedDeterministicAcrossWorkersAndReplays(t *testing.T) {
	for _, cache := range []struct {
		cap int
		ttl float64
	}{{0, 0}, {256, 24}} {
		var want uint64
		for i, procs := range []int{1, 4, 16, 1} { // trailing 1 = replay
			got := fingerprintFederated(t, procs, cache.cap, cache.ttl)
			if i == 0 {
				want = got
				continue
			}
			if got != want {
				t.Fatalf("cache=%+v GOMAXPROCS=%d: fingerprint %x != %x", cache, procs, got, want)
			}
		}
	}
}

// TestFederatedMediatedVsExhaustive checks quality directly: topical
// queries answered by a 2-of-4 site subset must recall the exhaustive
// top-10 perfectly (their terms live at one site), and shared-term
// queries must fall back to full fan-out (CORI spreads their score mass
// over every site, so no two sites clear the confidence floor).
func TestFederatedMediatedVsExhaustive(t *testing.T) {
	m := newFederatedMultiSite(t, 7, 4, 0, mediated, nil)
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
// subsets and returns the same answers as QueryTopK; a budget no routed
// answer can meet is refused with no results.
func TestFederatedDeadlineKeepsMediation(t *testing.T) {
	plain := newFederatedMultiSite(t, 7, 4, 0, mediated, nil)
	budgeted := newFederatedMultiSite(t, 7, 4, 0, mediated, nil)
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
	if qr := budgeted.QueryTopKWithin([]string{"s3w07"}, 10, 1e-9); !errors.Is(qr.Err, ErrDeadlineExceeded) || qr.Results != nil {
		t.Fatalf("tiny budget: err = %v with %d results, want ErrDeadlineExceeded and none", qr.Err, len(qr.Results))
	}
}

// TestFederatedOutageFallsBackToFullFanout: when the mediator's chosen
// site is inside an outage window it never enters the up set, and the
// query widens to the remaining sites instead of failing.
func TestFederatedOutageFallsBackToFullFanout(t *testing.T) {
	m := newFederatedMultiSite(t, 7, 4, 0, []Option{WithMediator(1, 0.5)}, nil)
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

// TestFederatedInjectedFaultRetriesFullFanout: when an injected fault
// makes every selected site refuse its answer, the query retries once as
// a full fan-out (attempt 1) and degrades instead of failing.
func TestFederatedInjectedFaultRetriesFullFanout(t *testing.T) {
	m := newFederatedMultiSite(t, 7, 4, 0, []Option{WithMediator(1, 0.5)}, nil)
	// Site 0's engine is fail-fast with a partition that always crashes.
	docs := topicalDocs(7, 4, 120)[0]
	e, err := NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(index.DocIDs(docs), 2),
		WithFaults(FaultPolicy{Mode: FailFast}, faultsim.New(4).Unit(0, faultsim.Spec{Crash: true})))
	if err != nil {
		t.Fatal(err)
	}
	m.Sites[0].Engine = e
	q := []string{"s0w01"} // CORI selects site 0, which always refuses
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
	run := func(penaltyMs float64) SiteQueryResult {
		m := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
		// Site 2 queues forwarded queries behind its own traffic.
		m.Sites[2].Selfish, m.Sites[2].ForeignPenaltyMs = penaltyMs > 0, penaltyMs
		return m.QueryFederated([]string{"shared01"}, "shared01", 0, 1, 10)
	}
	clean := run(0)
	slow := run(5000)
	if !slow.FullFanout || slow.Err != nil || slow.LatencyMs < clean.LatencyMs+1000 {
		t.Fatalf("a 5 s straggler site cost %.1f ms (%.1f ms with it, %.1f ms without; err %v)",
			slow.LatencyMs-clean.LatencyMs, slow.LatencyMs, clean.LatencyMs, slow.Err)
	}
}

// TestFederatedLostSiteDoesNoWork: a site inside an outage window
// cannot evaluate anything, so its engine must not be asked to.
func TestFederatedLostSiteDoesNoWork(t *testing.T) {
	m := newFederatedMultiSite(t, 7, 4, 0, nil, nil)
	m.Sites[2].Outages = []cluster.Outage{{Start: 0, End: 100}}
	r := m.QueryFederated([]string{"shared01"}, "shared01", 0, 1, 10)
	if r.Err != nil || r.SitesContacted != 3 || len(r.Results) == 0 {
		t.Fatalf("fan-out around a down site: %+v", r)
	}
	if n := m.Sites[2].Engine.Stats().Queries; n != 0 {
		t.Fatalf("the down site's engine evaluated %d queries", n)
	}
}

// TestFederatedFoldsRefusingSitesWork: a fail-fast site with a partition
// down refuses its share of the answer, which is therefore degraded —
// but the server it did contact was contacted, and the ledger says so.
func TestFederatedFoldsRefusingSitesWork(t *testing.T) {
	m := newFederatedMultiSite(t, 7, 4, 0, nil, []Option{WithFaults(FaultPolicy{Mode: FailFast}, nil)})
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
// first answer. A hit contacts no site, so it reports no fan-out and
// leaves the selection counters where the first query put them.
func TestFederatedCachedReplayIdentical(t *testing.T) {
	m := newFederatedMultiSite(t, 7, 4, 24, mediated, nil)
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
	if second.SitesContacted != 0 || second.SitesSkipped != 0 || second.FullFanout {
		t.Fatalf("cache hit reports a fan-out: contacted=%d skipped=%d full=%v",
			second.SitesContacted, second.SitesSkipped, second.FullFanout)
	}
	want := metrics.SelectionCounters{Queries: 1, Mediated: 1,
		SitesContacted: first.SitesContacted, SitesSkipped: first.SitesSkipped}
	if first.FullFanout || m.Stats().Selection != want {
		t.Fatalf("selection after a miss and a hit: %s, want %s", m.Stats().Selection.String(), want.String())
	}
}

// quarterMediator is the mediator dwrserve -federate serves with: a
// quarter of the up sites per query, pruning above confidence 0.15.
var quarterMediator = []Option{WithMediator(0, 0.15)}

// TestMediatorDecideTopicalVsShared: a topical query is pruned to the
// owning site; a shared-vocabulary query falls back to full fan-out
// because no small subset concentrates the selection score mass.
func TestMediatorDecideTopicalVsShared(t *testing.T) {
	m := newFederatedMultiSite(t, 3, 4, 0, quarterMediator, nil)
	if sites, conf := decideIDs(m, []string{"s2w01"}, 0, 1, 2, 3); !reflect.DeepEqual(sites, []int{2}) || conf < 0.9 {
		t.Fatalf("topical query routed to %v at confidence %v, want [2] above 0.9", sites, conf)
	}
	if sites, conf := decideIDs(m, []string{"shared03"}, 0, 1, 2, 3); sites != nil {
		t.Fatalf("shared query pruned to %v at confidence %v", sites, conf)
	}
}

// TestMediatorSmallUpSetFullFanout: zero or one live site leaves nothing
// to select between.
func TestMediatorSmallUpSetFullFanout(t *testing.T) {
	m := newFederatedMultiSite(t, 3, 4, 0, quarterMediator, nil)
	for _, up := range [][]int{nil, {3}} {
		if sites, _ := decideIDs(m, []string{"s0w01"}, up...); sites != nil {
			t.Fatalf("up set %v pruned to %v", up, sites)
		}
	}
}

// TestMediatorRespectsUpSet: a decision never names a site outside the
// caller's up set, even when the selector's favourite is down.
func TestMediatorRespectsUpSet(t *testing.T) {
	m := newFederatedMultiSite(t, 3, 4, 0, []Option{WithMediator(1, 0)}, nil)
	// Site 2 is down; of the up sites only site 1 holds either term.
	if sites, _ := decideIDs(m, []string{"s2w01", "s1w01"}, 0, 1, 3); !reflect.DeepEqual(sites, []int{1}) {
		t.Fatalf("decision with site 2 down: %v, want [1]", sites)
	}
}

// TestMediatorUnknownTermsFullFanout: terms absent from every site's
// statistics give the selector nothing to score, so pruning would be a
// guess — the mediator must widen.
func TestMediatorUnknownTermsFullFanout(t *testing.T) {
	m := newFederatedMultiSite(t, 3, 4, 0, quarterMediator, nil)
	if sites, _ := decideIDs(m, []string{"zzz-never-indexed"}, 0, 1, 2, 3); sites != nil {
		t.Fatalf("unknown term pruned to %v", sites)
	}
}

// TestMediatorDecidesDeterministically: the same statistics and query
// stream yield identical decisions, confidences to the last bit, on a
// fresh federation.
func TestMediatorDecidesDeterministically(t *testing.T) {
	queries := [][]string{{"s0w01"}, {"shared02"}, {"s1w05", "s1w06"}, {"s2w00"}, {"shared11", "s0w03"}}
	run := func() []string {
		m := newFederatedMultiSite(t, 3, 4, 0, quarterMediator, nil)
		var out []string
		for _, q := range queries {
			sites, conf := decideIDs(m, q, 0, 1, 2, 3)
			out = append(out, fmt.Sprintf("%v|%.17g", sites, conf))
		}
		return out
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatalf("decisions differ across replays:\n%q\n%q", a, b)
	}
}

// TestFederationServesAndSamplesRecall drives the whole stack — site
// engines, the mediator, the mediated MultiSite — through QueryTopK:
// queries succeed, pruning happens, and the sampled Recall@k against
// the exhaustive fan-out stays high.
func TestFederationServesAndSamplesRecall(t *testing.T) {
	const nSites = 4
	f := newFederatedMultiSite(t, 7, nSites, 0, []Option{WithMediator(2, 0.3)}, nil)
	f.SampleEvery = 1
	if f.K() != nSites || f.Health().Units != nSites {
		t.Fatalf("K() = %d, health %+v; want %d sites", f.K(), f.Health(), nSites)
	}
	for i, q := range topicalTestQueries(13, 60, nSites) {
		f.Now = float64(i % 24)
		if r := f.QueryTopK(q, 10); r.Err != nil {
			t.Fatalf("query %v failed: %v", q, r.Err)
		}
	}
	st := f.Stats().Selection
	if st.Mediated == 0 || st.SitesSkipped == 0 || st.RecallSamples == 0 {
		t.Fatalf("federation never pruned or never sampled: %s", st.String())
	}
	if mr := st.MeanRecall(); mr < 0.95 {
		t.Fatalf("mean sampled recall %.3f < 0.95", mr)
	}
}

// TestFederationHonoursDeadline: the mediated MultiSite takes a
// virtual-time budget through QueryTopKWithin, as server.Run hands it.
// A budget no routed answer can meet
// is refused with no results; a generous one changes nothing — answers,
// site fan-out and recall sampling replay QueryTopK's exactly.
func TestFederationHonoursDeadline(t *testing.T) {
	queries := [][]string{{"s0w01"}, {"shared02"}, {"s1w05", "s1w06"}, {"s2w00"}, {"shared11", "s0w03"}, {"s0w01"}}
	federation := func() *MultiSite {
		m := newFederatedMultiSite(t, 7, 4, 0, []Option{WithMediator(2, 0.3)}, nil)
		m.SampleEvery = 1
		return m
	}
	plain, within := federation(), federation()
	var eng Engine = within
	for _, q := range queries {
		want, got := plain.QueryTopK(q, 10), eng.QueryTopKWithin(q, 10, 1e9)
		if want.Err != nil || len(want.Results) == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("query %v: a generous budget changed the answer:\n%+v\n%+v", q, want, got)
		}
	}
	if want, got := plain.Stats(), within.Stats(); want.Selection != got.Selection || want.Selection.SitesContacted == 0 {
		t.Fatalf("a generous budget changed the fan-out or the sampling: %s vs %s", want.Selection.String(), got.Selection.String())
	}
	if qr := eng.QueryTopKWithin([]string{"s3w07"}, 10, 1e-9); !errors.Is(qr.Err, ErrDeadlineExceeded) || qr.Results != nil {
		t.Fatalf("tiny budget: err = %v with %d results, want ErrDeadlineExceeded and none", qr.Err, len(qr.Results))
	}
}
