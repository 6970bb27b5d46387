package qproc

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"dwr/internal/cluster"
	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/replication"
)

// qrFingerprint serializes everything observable about a QueryResult so
// determinism tests can compare byte-for-byte.
func qrFingerprint(qr QueryResult) string {
	s := fmt.Sprintf("lat=%v sc=%d pd=%d la=%d pb=%d bt=%d fc=%v st=%v dg=%v rt=%d err=%v |",
		qr.LatencyMs, qr.ServersContacted, qr.PostingsDecoded,
		qr.ListsAccessed, qr.PostingBytesRead, qr.BytesTransferred,
		qr.FromCache, qr.Stale, qr.Degraded, qr.Retries, qr.Err)
	for _, r := range qr.Results {
		s += fmt.Sprintf(" %d:%v", r.Doc, r.Score)
	}
	return s
}

func buildDocEngine(t *testing.T, docs []index.Doc, k int, options ...Option) *DocEngine {
	t.Helper()
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	e, err := NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, k), options...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// replay runs every query serially and returns the concatenated
// fingerprints plus the count of clean (non-degraded, non-failed)
// answers.
func replay(e Engine, queries [][]string) (string, int) {
	var fp string
	clean := 0
	for _, q := range queries {
		qr := e.QueryTopK(q, 10)
		fp += qrFingerprint(qr) + "\n"
		if !qr.Degraded && qr.Err == nil {
			clean++
		}
	}
	return fp, clean
}

// TestZeroFaultByteIdentity pins the regression contract: an engine
// carrying a fault policy with nothing injected answers byte-identically
// to a plain engine, at any GOMAXPROCS.
func TestZeroFaultByteIdentity(t *testing.T) {
	docs := corpus(3, 400, 300)
	queries := zipfQueries(7, 120, 300)

	setProcs(t, 1)
	plain := buildDocEngine(t, docs, 4)
	want, _ := replay(plain, queries)

	for _, procs := range []int{1, 3, 8} {
		setProcs(t, procs)
		e := buildDocEngine(t, docs, 4, WithFaults(DefaultFaultPolicy(), nil))
		got, _ := replay(e, queries)
		if got != want {
			t.Fatalf("GOMAXPROCS=%d: fault-capable engine diverged from plain engine with zero faults", procs)
		}
	}
}

func termVocab(docs []index.Doc) []string {
	seen := make(map[string]bool)
	var out []string
	for _, d := range docs {
		for _, w := range d.Terms {
			if !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// TestFaultDeterminism pins the tentpole's reproducibility contract: a
// fixed injector seed produces identical results, latencies, and fault
// accounting across runs AND across GOMAXPROCS.
func TestFaultDeterminism(t *testing.T) {
	docs := corpus(3, 400, 300)
	queries := zipfQueries(7, 150, 300)
	build := func() *DocEngine {
		inj := faultsim.New(42).
			Default(faultsim.Spec{FlakyP: 0.15, SlowP: 0.1, SlowMeanMs: 12}).
			Unit(1, faultsim.Spec{FlakyP: 0.4}).
			Window(faultsim.Window{Unit: 2, Replica: -1, From: 40, To: 60})
		return buildDocEngine(t, docs, 4,
			WithFaults(DefaultFaultPolicy(), inj))
	}
	setProcs(t, 1)
	ref, _ := replay(build(), queries)
	for _, procs := range []int{1, 2, 8} {
		setProcs(t, procs)
		got, _ := replay(build(), queries)
		if got != ref {
			t.Fatalf("GOMAXPROCS=%d: fault replay diverged from serial reference", procs)
		}
	}
	// Different seed must actually change something (the schedule is
	// live, not vacuously deterministic).
	other := buildDocEngine(t, docs, 4,
		WithFaults(DefaultFaultPolicy(), faultsim.New(43).Default(faultsim.Spec{FlakyP: 0.15, SlowP: 0.1, SlowMeanMs: 12})))
	got, _ := replay(other, queries)
	if got == ref {
		t.Fatal("different fault seed produced an identical replay")
	}
}

// TestRetriesMaskFlakyPartitions pins the acceptance bar: 10% flaky
// partitions with replicas and retries must still serve >= 99% of
// queries non-degraded, reproducibly.
func TestRetriesMaskFlakyPartitions(t *testing.T) {
	docs := corpus(3, 400, 300)
	queries := zipfQueries(11, 400, 300)
	build := func() *DocEngine {
		return buildDocEngine(t, docs, 4,
			WithFaults(DefaultFaultPolicy(), faultsim.New(7).Default(faultsim.Spec{FlakyP: 0.10}))) // 2 replicas, 2 retries
	}
	e := build()
	_, clean := replay(e, queries)
	if frac := float64(clean) / float64(len(queries)); frac < 0.99 {
		t.Fatalf("only %.1f%% clean answers under 10%% flakiness, want >= 99%%", 100*frac)
	}
	st := e.Stats()
	if st.Faults.FaultsSeen == 0 || st.Faults.Retries == 0 {
		t.Fatalf("flaky run recorded no faults/retries: %+v", st.Faults)
	}
	// Reproducible: a second identical engine sees identical counters.
	e2 := build()
	replay(e2, queries)
	if e2.Stats().Faults != st.Faults {
		t.Fatalf("fault counters not reproducible: %+v vs %+v", e2.Stats().Faults, st.Faults)
	}
	// Sanity-check the replication arithmetic of the policy's attempts.
	if p := replication.Availability(0.90, DefaultFaultPolicy().MaxRetries+1); p < 0.99 {
		t.Fatalf("predicted availability %.4f below 0.99", p)
	}
}

// TestNoRetriesDegrade is the control for the above: the same fault
// schedule without retries/replicas must degrade noticeably.
func TestNoRetriesDegrade(t *testing.T) {
	docs := corpus(3, 400, 300)
	queries := zipfQueries(11, 400, 300)
	e := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{MaxRetries: 0, Replicas: 1}, faultsim.New(7).Default(faultsim.Spec{FlakyP: 0.10})))
	_, clean := replay(e, queries)
	if frac := float64(clean) / float64(len(queries)); frac > 0.90 {
		t.Fatalf("%.1f%% clean without retries — schedule too gentle to test against", 100*frac)
	}
}

// TestFailFastReturnsErrUnavailable pins the explicit degradation modes:
// best-effort flags Degraded, fail-fast refuses with a typed error.
func TestFailFastReturnsErrUnavailable(t *testing.T) {
	docs := corpus(3, 300, 200)
	inj := func() *faultsim.Injector {
		// Partition 2 is dead on every replica; retries cannot save it.
		return faultsim.New(1).Unit(2, faultsim.Spec{Crash: true})
	}
	best := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{MaxRetries: 2, Replicas: 2, Mode: BestEffort}, inj()))
	qr := best.QueryTopK([]string{"w0001"}, 10)
	if !qr.Degraded || qr.Err != nil {
		t.Fatalf("best-effort: Degraded=%v Err=%v", qr.Degraded, qr.Err)
	}
	if len(qr.Results) == 0 {
		t.Fatal("best-effort returned no results at all")
	}

	ff := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{MaxRetries: 2, Replicas: 2, Mode: FailFast}, inj()))
	qr = ff.QueryTopK([]string{"w0001"}, 10)
	if !errors.Is(qr.Err, ErrUnavailable) {
		t.Fatalf("fail-fast Err = %v, want ErrUnavailable", qr.Err)
	}
	if len(qr.Results) != 0 {
		t.Fatal("fail-fast returned partial results")
	}
	st := ff.Stats()
	if st.Failed == 0 {
		t.Fatalf("fail-fast engine recorded no failed queries: %+v", st)
	}
}

// TestDeadlineBudget: a tight per-query deadline turns a slow partition
// into a timeout, and the latency is capped at the budget.
func TestDeadlineBudget(t *testing.T) {
	docs := corpus(3, 300, 200)
	e := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{MaxRetries: 3, Replicas: 2}, faultsim.New(5).Unit(0, faultsim.Spec{Crash: true})))
	qr := e.QueryTopKWithin([]string{"w0001"}, 10, 4)
	if !qr.Degraded {
		t.Fatalf("crashed partition under a 4ms deadline not degraded: %+v", qr)
	}
	if qr.LatencyMs > 4+1 { // deadline + healthy partitions' margin
		t.Fatalf("latency %.2f blew through the 4ms deadline", qr.LatencyMs)
	}
	if e.Stats().Faults.Timeouts == 0 {
		t.Fatal("deadline run recorded no timeouts")
	}
}

// TestHedgingFiresOnStragglers: a partition whose primary replica never
// answers (a silent outage window on replica 0 alone) gets hedged
// requests once the latency histogram warms up, and hedges win because
// the backup replica is fast.
func TestHedgingFiresOnStragglers(t *testing.T) {
	docs := corpus(3, 300, 200)
	// Primary replica of partition 0 never answers; replica 1 is clean.
	inj := faultsim.New(9).Window(faultsim.Window{Unit: 0, Replica: 0, From: 0, To: math.MaxInt64})
	e := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{MaxRetries: 1, Replicas: 2}, inj))
	queries := zipfQueries(13, 200, 200)
	for _, q := range queries {
		e.QueryTopK(q, 10)
	}
	st := e.Stats()
	if st.Faults.Hedges == 0 {
		t.Fatalf("no hedges fired against a persistent straggler: %+v", st.Faults)
	}
	if st.Faults.HedgeWins == 0 {
		t.Fatalf("hedges fired but never won against a 40ms straggler: %+v", st.Faults)
	}
}

// TestOutageWindowRecovers: a partition-wide outage window degrades
// queries inside the window and fully recovers after it closes.
func TestOutageWindowRecovers(t *testing.T) {
	docs := corpus(3, 300, 200)
	e := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{MaxRetries: 1, Replicas: 2}, faultsim.New(3).Window(faultsim.Window{Unit: 1, Replica: -1, From: 5, To: 10})))
	degradedIn, degradedOut := 0, 0
	for i := 1; i <= 20; i++ { // ticks 1..20
		qr := e.QueryTopK([]string{"w0001", "w0002"}, 10)
		if qr.Degraded {
			if i >= 5 && i < 10 {
				degradedIn++
			} else {
				degradedOut++
			}
		}
	}
	if degradedIn == 0 {
		t.Fatal("no degradation inside the outage window")
	}
	if degradedOut != 0 {
		t.Fatalf("%d degraded answers outside the outage window", degradedOut)
	}
}

// TestAmbientDefaultsMatchPerCallOptions pins the configuration
// surface: ambient defaults (SetDefaultOptions) reach constructors and
// behave identically to the same options passed per call.
func TestAmbientDefaultsMatchPerCallOptions(t *testing.T) {
	docs := corpus(3, 300, 200)
	queries := zipfQueries(17, 80, 200)
	cfg := ResultCacheConfig{Capacity: 64}

	viaOpts := buildDocEngine(t, docs, 4, WithResultCache(cfg))
	a, _ := replay(viaOpts, queries)
	plain := buildDocEngine(t, docs, 4)
	p, _ := replay(plain, queries)

	SetDefaultOptions(WithResultCache(cfg))
	defer SetDefaultOptions()
	viaAmbient := buildDocEngine(t, docs, 4)
	c, _ := replay(viaAmbient, queries)
	if c != a {
		t.Fatal("ambient-default engine diverged from per-call options engine")
	}
	if viaAmbient.ResultCache() == nil {
		t.Fatal("ambient defaults not applied at construction")
	}

	// Per-call options override ambient defaults.
	viaOverride := buildDocEngine(t, docs, 4, WithResultCache(ResultCacheConfig{}))
	if viaOverride.ResultCache() != nil {
		t.Fatal("per-call options did not override ambient defaults")
	}
	d, _ := replay(viaOverride, queries)
	if d != p {
		t.Fatal("override engine diverged from the plain uncached engine")
	}
}

// TestErrAllSitesDownTyped pins the typed multi-site failure: with every
// site down, Submit fails with an errors.Is-inspectable ErrAllSitesDown.
func TestErrAllSitesDownTyped(t *testing.T) {
	docs := corpus(21, 120, 100)
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	m := NewMultiSite(cluster.NewNetwork(1), RouteGeo)
	for s := 0; s < 3; s++ {
		e, err := NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, 2))
		if err != nil {
			t.Fatal(err)
		}
		m.Sites = append(m.Sites, NewSite(s, s, e, 16, 1000))
	}
	m.Sites[0].Outages = []cluster.Outage{{Start: 0, End: 100}}
	m.Sites[1].Outages = []cluster.Outage{{Start: 0, End: 100}}
	m.Sites[2].Outages = []cluster.Outage{{Start: 0, End: 100}}
	r := m.Submit([]string{"w0001"}, "w0001", 0, 1, 10)
	if !r.Failed {
		t.Fatal("query succeeded with every site down")
	}
	if !errors.Is(r.Err, ErrAllSitesDown) {
		t.Fatalf("Err = %v, want ErrAllSitesDown", r.Err)
	}

	// Engine-level total outage surfaces the same typed error.
	m2 := NewMultiSite(cluster.NewNetwork(1), RouteGeo)
	e, err := NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, 2))
	if err != nil {
		t.Fatal(err)
	}
	m2.Sites = append(m2.Sites, NewSite(0, 0, e, 16, 1000))
	for p := 0; p < e.K(); p++ {
		e.SetDown(p, true)
	}
	r = m2.Submit([]string{"w0001"}, "w0001", 0, 1, 10)
	if !errors.Is(r.Err, ErrAllSitesDown) {
		t.Fatalf("engine-level outage Err = %v, want ErrAllSitesDown", r.Err)
	}
}

// TestEngineInterfaceHealth exercises the uniform Engine surface across
// the document-partitioned and multi-site engines.
func TestEngineInterfaceHealth(t *testing.T) {
	docs := corpus(3, 200, 150)
	var engines []Engine

	de := buildDocEngine(t, docs, 4,
		WithFaults(FaultPolicy{Replicas: 1}, faultsim.New(2).Unit(1, faultsim.Spec{Crash: true})))
	engines = append(engines, de)

	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	m := NewMultiSite(cluster.NewNetwork(1), RouteGeo)
	for s := 0; s < 2; s++ {
		e, err := NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, 2))
		if err != nil {
			t.Fatal(err)
		}
		m.Sites = append(m.Sites, NewSite(s, s, e, 16, 1000))
	}
	m.Now = 1
	engines = append(engines, m)

	for i, e := range engines {
		qr := e.QueryTopK([]string{"w0001"}, 5)
		if len(qr.Results) == 0 {
			t.Fatalf("engine %d: no results via QueryTopK", i)
		}
		if e.K() <= 0 {
			t.Fatalf("engine %d: K() = %d", i, e.K())
		}
		if st := e.Stats(); st.Queries == 0 {
			t.Fatalf("engine %d: Stats().Queries = 0 after a query", i)
		}
		h := e.Health()
		if h.Units != e.K() {
			t.Fatalf("engine %d: Health units %d != K %d", i, h.Units, e.K())
		}
	}

	// The DocEngine above has partition 1 crashed on its only replica:
	// Health must report it down.
	h := de.Health()
	if h.Healthy() || len(h.Down) != 1 || h.Down[0] != 1 {
		t.Fatalf("Health missed the crashed partition: %+v", h)
	}
	if h.Live() != 3 {
		t.Fatalf("Live() = %d, want 3", h.Live())
	}
}
