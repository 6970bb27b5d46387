package mediator

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dwr/internal/cluster"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
)

// topicalSiteDocs builds nSites disjoint sub-collections where site s
// owns the "s<s>w<j>" vocabulary plus a shared tail, mirroring the
// federated fixtures in qproc.
func topicalSiteDocs(seed int64, nSites, perSite int) [][]index.Doc {
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

// topicalEngines builds one 2-partition DocEngine per site.
func topicalEngines(t *testing.T, seed int64, nSites, perSite int) []*qproc.DocEngine {
	t.Helper()
	siteDocs := topicalSiteDocs(seed, nSites, perSite)
	engines := make([]*qproc.DocEngine, nSites)
	for s := range engines {
		e, err := qproc.NewDocEngine(index.DefaultOptions(), siteDocs[s],
			partition.RoundRobinDocs(index.DocIDs(siteDocs[s]), 2))
		if err != nil {
			t.Fatal(err)
		}
		engines[s] = e
	}
	return engines
}

func engineSources(engines []*qproc.DocEngine) []StatsSource {
	srcs := make([]StatsSource, len(engines))
	for i, e := range engines {
		srcs[i] = EngineSource{Eng: e}
	}
	return srcs
}

func upTo(n int) []int {
	up := make([]int, n)
	for i := range up {
		up[i] = i
	}
	return up
}

// TestMediatorDecideTopicalVsShared: a topical query is pruned to the
// owning site; a shared-vocabulary query falls back to full fan-out
// because no small subset concentrates the selection score mass.
func TestMediatorDecideTopicalVsShared(t *testing.T) {
	m := New(DefaultConfig(), engineSources(topicalEngines(t, 3, 4, 120))...)
	d := m.Decide([]string{"s2w01"}, upTo(4))
	if d.FullFanout {
		t.Fatalf("topical query not pruned: %+v", d)
	}
	if len(d.Sites) != 1 || d.Sites[0] != 2 {
		t.Fatalf("topical query routed to %v, want [2]", d.Sites)
	}
	if d.Confidence < 0.9 {
		t.Fatalf("confidence %v for a single-site vocabulary", d.Confidence)
	}
	d = m.Decide([]string{"shared03"}, upTo(4))
	if !d.FullFanout {
		t.Fatalf("shared query pruned at confidence %v: %+v", d.Confidence, d)
	}
}

// TestMediatorSmallUpSetFullFanout: zero or one live site leaves nothing
// to select between.
func TestMediatorSmallUpSetFullFanout(t *testing.T) {
	m := New(DefaultConfig(), engineSources(topicalEngines(t, 3, 4, 60))...)
	if d := m.Decide([]string{"s0w01"}, nil); !d.FullFanout {
		t.Fatalf("empty up set must full fan-out: %+v", d)
	}
	if d := m.Decide([]string{"s0w01"}, []int{3}); !d.FullFanout {
		t.Fatalf("single-site up set must full fan-out: %+v", d)
	}
}

// TestMediatorRespectsUpSet: a decision never names a site outside the
// caller's up set, even when the selector's favourite is down.
func TestMediatorRespectsUpSet(t *testing.T) {
	m := New(Config{SelectN: 1}, engineSources(topicalEngines(t, 3, 4, 120))...)
	up := []int{0, 1, 3} // site 2 is down
	d := m.Decide([]string{"s2w01", "s1w01"}, up)
	if d.FullFanout {
		return // acceptable: widened because the evidence degraded
	}
	for _, s := range d.Sites {
		if s == 2 {
			t.Fatalf("decision names the down site: %v", d.Sites)
		}
	}
}

// TestMediatorUnknownTermsFullFanout: terms absent from every site's
// statistics give the selector nothing to score, so pruning would be a
// guess — the mediator must widen.
func TestMediatorUnknownTermsFullFanout(t *testing.T) {
	m := New(DefaultConfig(), engineSources(topicalEngines(t, 3, 4, 60))...)
	if d := m.Decide([]string{"zzz-never-indexed"}, upTo(4)); !d.FullFanout {
		t.Fatalf("unknown term pruned: %+v", d)
	}
}

// TestMediatorStoreSourceFreshness: statistics sourced from segment
// stores follow the stores' manifests — after new segments land at a
// previously silent site, the next decision sees the new vocabulary
// without a full selector rebuild.
func TestMediatorStoreSourceFreshness(t *testing.T) {
	stores := []*index.SegmentStore{
		index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3}),
		index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3}),
		index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3}),
	}
	seg := func(base, n int, term string) *index.Index {
		b := index.NewBuilder(index.DefaultOptions())
		for d := 0; d < n; d++ {
			terms := []string{term, term, fmt.Sprintf("filler%d", d%7)}
			if err := b.AddDocument(base+d, terms); err != nil {
				t.Fatal(err)
			}
		}
		return index.MustBuild(b)
	}
	if err := stores[0].Apply(seg(0, 40, "fresh")); err != nil {
		t.Fatal(err)
	}
	if err := stores[1].Apply(seg(1000, 40, "stale")); err != nil {
		t.Fatal(err)
	}
	if err := stores[2].Apply(seg(2000, 40, "other")); err != nil {
		t.Fatal(err)
	}
	m := New(Config{SelectN: 1, MinConfidence: 0.1},
		StoreSource{Store: stores[0]}, StoreSource{Store: stores[1]}, StoreSource{Store: stores[2]})
	d := m.Decide([]string{"fresh"}, upTo(3))
	if d.FullFanout || len(d.Sites) != 1 || d.Sites[0] != 0 {
		t.Fatalf("before the write, want [0], got %+v", d)
	}
	// Site 1's collection shifts: a flood of "fresh" documents lands.
	for i := 0; i < 4; i++ {
		if err := stores[1].Apply(seg(1100+200*i, 200, "fresh")); err != nil {
			t.Fatal(err)
		}
	}
	d = m.Decide([]string{"fresh"}, upTo(3))
	if !d.FullFanout && (len(d.Sites) != 1 || d.Sites[0] != 1) {
		t.Fatalf("after the write, decision still ignores site 1: %+v", d)
	}
	info := m.Info()
	if info.Sites != 3 {
		t.Fatalf("info sites = %d", info.Sites)
	}
	if info.Rebuilds != 1 {
		t.Fatalf("expected exactly one full rebuild (CORI updates in place), got %d", info.Rebuilds)
	}
	if info.Refreshes == 0 {
		t.Fatal("store change did not trigger an incremental refresh")
	}
}

// TestMediatorDecisionsDeterministic: the same statistics and query
// stream yield byte-identical decisions on a fresh mediator.
func TestMediatorDecisionsDeterministic(t *testing.T) {
	queries := [][]string{{"s0w01"}, {"shared02"}, {"s1w05", "s1w06"}, {"s2w00"}, {"shared11", "s0w03"}}
	run := func() []string {
		m := New(DefaultConfig(), engineSources(topicalEngines(t, 3, 4, 120))...)
		var out []string
		for _, q := range queries {
			d := m.Decide(q, upTo(4))
			out = append(out, fmt.Sprintf("%v|%v|%.17g", d.Sites, d.FullFanout, d.Confidence))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across replays: %q vs %q", i, a[i], b[i])
		}
	}
}

// topicalFederation wires the whole stack — engines → mediator →
// mediated MultiSite — sampling recall on every mediated answer.
func topicalFederation(t *testing.T, nSites int) *qproc.MultiSite {
	t.Helper()
	engines := topicalEngines(t, 7, nSites, 120)
	med := New(Config{SelectN: 2, MinConfidence: 0.3}, engineSources(engines)...)
	ms := qproc.NewMultiSite(cluster.NewNetwork(1, nSites), qproc.RouteGeo, qproc.WithMediator(med))
	for s, e := range engines {
		ms.Sites = append(ms.Sites, qproc.NewSite(s, s, e, 64, 1000))
	}
	ms.SampleEvery = 1
	return ms
}

// TestFederationServesAndSamplesRecall wires the whole stack: engines →
// mediator → mediated MultiSite, then checks queries succeed, pruning
// happens, and sampled Recall@k against the exhaustive fan-out stays
// high.
func TestFederationServesAndSamplesRecall(t *testing.T) {
	const nSites = 4
	f := topicalFederation(t, nSites)
	if f.K() != nSites {
		t.Fatalf("K() = %d, want %d sites", f.K(), nSites)
	}
	if h := f.Health(); h.Units != nSites {
		t.Fatalf("health: %+v", h)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		var q []string
		if rng.Intn(4) == 0 {
			q = []string{fmt.Sprintf("shared%02d", rng.Intn(20))}
		} else {
			q = []string{fmt.Sprintf("s%dw%02d", rng.Intn(nSites), rng.Intn(40))}
		}
		f.Now = float64(i % 24)
		r := f.QueryTopK(q, 10)
		if r.Err != nil {
			t.Fatalf("query %v failed: %v", q, r.Err)
		}
	}
	st := f.Stats()
	if st.Selection.Mediated == 0 || st.Selection.SitesSkipped == 0 {
		t.Fatalf("federation never pruned: %s", st.Selection.String())
	}
	if st.Selection.RecallSamples == 0 {
		t.Fatalf("no recall samples despite SampleEvery=1: %s", st.Selection.String())
	}
	if mr := st.Selection.MeanRecall(); mr < 0.95 {
		t.Fatalf("mean sampled recall %.3f < 0.95", mr)
	}
}

// TestFederationHonoursDeadline: a front-end finds the mediated
// MultiSite through the DeadlineQuerier assertion, so `dwrserve -federate -deadline N`
// propagates its budget. A budget no routed answer can meet is refused
// with no results; a generous one changes nothing — answers, site
// fan-out and recall sampling replay QueryTopK's exactly.
func TestFederationHonoursDeadline(t *testing.T) {
	queries := [][]string{{"s0w01"}, {"shared02"}, {"s1w05", "s1w06"}, {"s2w00"}, {"shared11", "s0w03"}, {"s0w01"}}
	plain, within := topicalFederation(t, 4), topicalFederation(t, 4)
	var eng qproc.Engine = within
	dq, ok := eng.(qproc.DeadlineQuerier)
	if !ok {
		t.Fatal("MultiSite is not a DeadlineQuerier: a serving deadline would be dropped")
	}
	for _, q := range queries {
		want, got := plain.QueryTopK(q, 10), dq.QueryTopKWithin(q, 10, 1e9)
		if want.Err != nil || len(want.Results) == 0 || !reflect.DeepEqual(want, got) {
			t.Fatalf("query %v: a generous budget changed the answer:\n%+v\n%+v", q, want, got)
		}
	}
	if want, got := plain.Stats(), within.Stats(); want.Selection != got.Selection || want.Selection.SitesContacted == 0 {
		t.Fatalf("a generous budget changed the fan-out or the sampling: %s vs %s", want.Selection.String(), got.Selection.String())
	}
	if qr := dq.QueryTopKWithin([]string{"s3w07"}, 10, 1e-9); !errors.Is(qr.Err, qproc.ErrDeadlineExceeded) || qr.Results != nil {
		t.Fatalf("tiny budget: err = %v with %d results, want ErrDeadlineExceeded and none", qr.Err, len(qr.Results))
	}
}
