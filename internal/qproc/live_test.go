package qproc

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dwr/internal/conc"
	"dwr/internal/index"
	"dwr/internal/rank"
)

// liveStores fills nparts segment stores with docs round-robin through
// segment writers sealing every segDocs documents. A non-nil pool runs
// the merge cascades in the background (quiesced before returning).
func liveStores(t *testing.T, docs []index.Doc, nparts, segDocs int, pool *conc.Pool) ([]*index.SegmentStore, []*index.SegmentWriter) {
	t.Helper()
	stores := make([]*index.SegmentStore, nparts)
	writers := make([]*index.SegmentWriter, nparts)
	for i := range stores {
		stores[i] = index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		if pool != nil {
			stores[i].Background(pool)
		}
		writers[i] = index.NewSegmentWriter(stores[i], segDocs)
	}
	for _, d := range docs {
		if err := writers[d.Ext%nparts].AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
	}
	for i, w := range writers {
		if err := w.Cut(); err != nil {
			t.Fatal(err)
		}
		stores[i].Quiesce()
	}
	return stores, writers
}

// liveFixture builds a LiveEngine over liveStores.
func liveFixture(t *testing.T, docs []index.Doc, nparts, segDocs int, options ...Option) (*LiveEngine, []*index.SegmentStore, []*index.SegmentWriter) {
	t.Helper()
	stores, writers := liveStores(t, docs, nparts, segDocs, nil)
	return liveOver(t, stores, options...), stores, writers
}

func liveOver(t *testing.T, stores []*index.SegmentStore, options ...Option) *LiveEngine {
	t.Helper()
	eng, err := NewLiveEngine(stores, options...)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// brokerGrid runs fn over the grid every static-vs-live equivalence
// check covers: widths {1,4,16} × pruning {none, MaxScore} ×
// {single-wave, shared thresholds}.
func brokerGrid(fn func(label string, options ...Option)) {
	for _, workers := range []int{1, 4, 16} {
		for _, mode := range []rank.Pruning{rank.PruneNone, rank.PruneMaxScore} {
			for _, shared := range []bool{false, true} {
				fn(fmt.Sprintf("workers=%d pruning=%d shared=%v", workers, mode, shared),
					WithWorkers(workers), WithPruning(mode), WithThresholdSharing(shared))
			}
		}
	}
}

// staticAnswers is the oracle of the equivalence suite: the serial,
// exhaustive, single-wave static DocEngine over docs.
func staticAnswers(t *testing.T, docs []index.Doc, nparts int, queries [][]string, k int) [][]rank.Result {
	t.Helper()
	static := newDocEngine(t, docs, nparts, WithWorkers(1))
	want := make([][]rank.Result, len(queries))
	for i, q := range queries {
		want[i] = static.QueryTopK(q, k).Results
	}
	return want
}

// TestLiveEngineStaticEquivalence: the same seeded corpus served from
// built partition indexes and from segment stores — however the stores
// have cut it up: small segments mid-cascade, larger ones, merges on a
// background pool, fully compacted — ranks identically, bit for bit, at
// every broker configuration. Run under -race in CI.
func TestLiveEngineStaticEquivalence(t *testing.T) {
	const nparts = 4
	docs := corpus(81, 1400, 1500)
	queries := zipfQueries(82, 50, 1500)
	pool := conc.NewPool(2)
	compacted, _ := liveStores(t, docs, nparts, 32, nil)
	for _, st := range compacted {
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	small, _ := liveStores(t, docs, nparts, 6, nil)  // 350 docs/partition: tiers of 282, 60, 6 and 2
	large, _ := liveStores(t, docs, nparts, 25, nil) // tiers of 250, 75 and 25
	merged, _ := liveStores(t, docs, nparts, 6, pool)
	if n := small[0].Manifest().NumSegments(); n < 3 {
		t.Fatalf("fixture: %d segments per partition; the views exercise no cross-segment seeding", n)
	}
	for _, k := range []int{10, 100} {
		want := staticAnswers(t, docs, nparts, queries, k)
		for name, stores := range map[string][]*index.SegmentStore{
			"segDocs=6": small, "segDocs=25": large, "background merges": merged, "compacted": compacted,
		} {
			brokerGrid(func(label string, options ...Option) {
				live := liveOver(t, stores, options...)
				for qi, q := range queries {
					if got := live.Query(q, k).Results; !reflect.DeepEqual(want[qi], got) {
						t.Fatalf("%s %s k=%d query %d %v:\nstatic %v\nlive   %v", name, label, k, qi, q, want[qi], got)
					}
				}
			})
		}
	}
}

// TestLiveEngineTombstoneEquivalence: with seeded tombstones pending,
// every broker configuration answers exactly as the exhaustive
// single-wave one over the same views and never returns a tombstoned
// document; once Compact has reclaimed them the answer is the static
// engine's over the surviving documents.
func TestLiveEngineTombstoneEquivalence(t *testing.T) {
	const nparts, k = 4, 10
	docs := corpus(83, 1400, 1500)
	queries := zipfQueries(84, 50, 1500)
	stores, _ := liveStores(t, docs, nparts, 6, nil)
	rng := rand.New(rand.NewSource(85))
	dead := map[int]bool{}
	var survivors []index.Doc
	for _, d := range docs {
		if rng.Intn(5) > 0 {
			survivors = append(survivors, d)
			continue
		}
		if !stores[d.Ext%nparts].Delete(d.Ext) {
			t.Fatalf("Delete(%d) found nothing", d.Ext)
		}
		dead[d.Ext] = true
	}
	if n := stores[0].Manifest().NumSegments(); n < 3 || stores[0].Manifest().Tombstones() == 0 {
		t.Fatalf("fixture: %d segments, %d tombstones in partition 0", n, stores[0].Manifest().Tombstones())
	}

	exhaustive := liveOver(t, stores, WithWorkers(1))
	want := make([][]rank.Result, len(queries))
	for i, q := range queries {
		want[i] = exhaustive.Query(q, k).Results
		for _, r := range want[i] {
			if dead[r.Doc] {
				t.Fatalf("query %v returned tombstoned doc %d", q, r.Doc)
			}
		}
	}
	brokerGrid(func(label string, options ...Option) {
		live := liveOver(t, stores, options...)
		for qi, q := range queries {
			if got := live.Query(q, k).Results; !reflect.DeepEqual(want[qi], got) {
				t.Fatalf("%s query %d %v:\nexhaustive %v\ngot        %v", label, qi, q, want[qi], got)
			}
		}
	})

	for _, st := range stores {
		if _, err := st.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	// The static oracle partitions the survivors by position, the stores
	// by ID; with collection-wide statistics the merged ranking does not
	// depend on the assignment.
	static := staticAnswers(t, survivors, nparts, queries, k)
	brokerGrid(func(label string, options ...Option) {
		live := liveOver(t, stores, options...)
		for qi, q := range queries {
			if got := live.Query(q, k).Results; !reflect.DeepEqual(static[qi], got) {
				t.Fatalf("after Compact, %s query %d %v:\nstatic %v\nlive   %v", label, qi, q, static[qi], got)
			}
		}
	})
}

// TestLiveEngineOracleEquivalence is the model-based check of the
// segment stores behind the one read path: a seeded random schedule of
// adds, cuts, deletes, background merges and compactions runs over three
// stores while a plain map tracks which documents are searchable. After
// every step (stores with pending tombstones quiesced, so no merge moves
// the statistics mid-check) all four broker configurations — workers {1,4} ×
// {MaxScore with shared thresholds, exhaustive single-wave} — must agree
// bit for bit and return only documents the model holds. Whenever no
// tombstone is pending the answer must also equal, bit for bit, a static
// engine built from scratch over the model's documents; pending
// tombstones still count toward DF and collection length (see
// Manifest.LocalStats), so until a merge reclaims them the from-scratch
// scores legitimately differ. Run under -race in CI.
func TestLiveEngineOracleEquivalence(t *testing.T) {
	const nparts, k, steps = 3, 10, 48
	rng := rand.New(rand.NewSource(97))
	feed := corpus(98, 700, 150)
	queries := zipfQueries(99, 6, 150)
	pool := conc.NewPool(2)
	stores := make([]*index.SegmentStore, nparts)
	writers := make([]*index.SegmentWriter, nparts)
	for i := range stores {
		stores[i] = index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		stores[i].Background(pool)
		writers[i] = index.NewSegmentWriter(stores[i], 1<<30) // seals on Cut only
	}
	defer pool.Wait()
	var lives []*LiveEngine
	for _, workers := range []int{1, 4} {
		lives = append(lives,
			liveOver(t, stores, WithWorkers(workers), WithPruning(rank.PruneMaxScore), WithThresholdSharing(true)),
			liveOver(t, stores, WithWorkers(workers)))
	}

	searchable := map[int]index.Doc{}       // sealed and not deleted
	buffered := make([][]index.Doc, nparts) // added, not yet cut
	home := map[int]int{}                   // document → store
	var survivors []index.Doc               // searchable, ascending by ID
	exact := 0
	for step := 0; step < steps; step++ {
		p := rng.Intn(nparts)
		var op string
		switch r := rng.Intn(100); {
		case r < 35 && len(feed) > 0:
			op = "add"
			n := 1 + rng.Intn(40)
			if n > len(feed) {
				n = len(feed)
			}
			for _, d := range feed[:n] {
				if err := writers[p].AddDocument(d.Ext, d.Terms); err != nil {
					t.Fatal(err)
				}
				home[d.Ext] = p
			}
			buffered[p] = append(buffered[p], feed[:n]...)
			feed = feed[n:]
		case r < 65:
			op = "cut"
			if err := writers[p].Cut(); err != nil {
				t.Fatal(err)
			}
			for _, d := range buffered[p] {
				searchable[d.Ext] = d
			}
			buffered[p] = nil
		case r < 80 && len(survivors) > 0:
			op = "delete"
			d := survivors[rng.Intn(len(survivors))]
			if !stores[home[d.Ext]].Delete(d.Ext) {
				t.Fatalf("step %d: Delete(%d) found nothing", step, d.Ext)
			}
			delete(searchable, d.Ext)
		case r < 90:
			op = "quiesce"
			stores[p].Quiesce()
		default:
			op = "compact"
			for _, st := range stores {
				if _, err := st.Compact(); err != nil {
					t.Fatal(err)
				}
			}
		}

		survivors = survivors[:0]
		pending := 0
		for _, d := range searchable {
			survivors = append(survivors, d)
		}
		sort.Slice(survivors, func(i, j int) bool { return survivors[i].Ext < survivors[j].Ext })
		for _, st := range stores {
			if st.Manifest().Tombstones() > 0 {
				// A background merge reclaiming tombstones moves DF under
				// the queries below; without tombstones a merge in flight
				// changes no statistic and is left running.
				st.Quiesce()
			}
			pending += st.Manifest().Tombstones()
		}
		var want [][]rank.Result
		if pending == 0 && len(survivors) > 0 {
			want = staticAnswers(t, survivors, nparts, queries, k)
			exact++
		}
		for qi, q := range queries {
			ref := lives[0].Query(q, k).Results
			if want != nil {
				ref = want[qi]
			}
			for li, live := range lives {
				got := live.Query(q, k).Results
				if !reflect.DeepEqual(ref, got) {
					t.Fatalf("step %d (%s), config %d, query %v, %d tombstones pending:\nwant %v\ngot  %v", step, op, li, q, pending, ref, got)
				}
				for _, r := range got {
					if _, ok := searchable[r.Doc]; !ok {
						t.Fatalf("step %d (%s), config %d, query %v: doc %d is not searchable in the model", step, op, li, q, r.Doc)
					}
				}
			}
		}
	}
	if exact < steps/3 {
		t.Fatalf("only %d of %d steps were checked against the from-scratch engine", exact, steps)
	}
}

// TestLiveEngineAnswerIndependentOfFanOut: the scatter schedule (serial
// vs parallel workers) must be invisible in the merged answer and in
// the work accounting.
func TestLiveEngineAnswerIndependentOfFanOut(t *testing.T) {
	docs := corpus(74, 800, 200)
	serial, _, _ := liveFixture(t, docs, 4, 64, WithWorkers(1))
	fanned, _, _ := liveFixture(t, docs, 4, 64, WithWorkers(4))
	for _, q := range [][]string{{"w0001"}, {"w0002", "w0005"}, {"w0000", "w0001", "w0003"}} {
		a, b := serial.Query(q, 10), fanned.Query(q, 10)
		if qrFingerprint(a) != qrFingerprint(b) {
			t.Fatalf("query %v: serial and fanned-out answers differ:\n%s\n%s",
				q, qrFingerprint(a), qrFingerprint(b))
		}
	}
}

// TestLiveEngineCacheInvalidatedBySwap verifies the OnChange wiring: a
// cached answer is served until any store swaps its manifest (new
// segment or tombstone), after which the cache generation has moved and
// the next query recomputes against the fresh snapshot.
func TestLiveEngineCacheInvalidatedBySwap(t *testing.T) {
	docs := corpus(72, 300, 150)
	eng, stores, writers := liveFixture(t, docs, 2, 32,
		WithResultCache(ResultCacheConfig{Capacity: 64}))
	q := []string{"w0001", "w0002"}

	first := eng.Query(q, 10)
	if first.FromCache {
		t.Fatal("first query cannot be a cache hit")
	}
	if again := eng.Query(q, 10); !again.FromCache {
		t.Fatal("identical repeat query missed the cache")
	}

	// A tombstone delete swaps a manifest → cached answers are stale.
	victim := first.Results[0].Doc
	if !stores[victim%2].Delete(victim) {
		t.Fatalf("Delete(%d) found nothing", victim)
	}
	after := eng.Query(q, 10)
	if after.FromCache {
		t.Fatal("cache served a pre-delete answer after a manifest swap")
	}
	for _, r := range after.Results {
		if r.Doc == victim {
			t.Fatalf("deleted doc %d still in the post-swap answer", victim)
		}
	}

	// Re-prime, then a writer seal must invalidate the same way.
	if qr := eng.Query(q, 10); !qr.FromCache {
		t.Fatal("repeat query after recompute missed the cache")
	}
	ext := 1_000_000
	for i := 0; i < 40; i++ { // enough adds to seal a 32-doc segment
		if err := writers[ext%2].AddDocument(ext, []string{"w0001", "w0002"}); err != nil {
			t.Fatal(err)
		}
		ext += 2
	}
	if qr := eng.Query(q, 10); qr.FromCache {
		t.Fatal("cache served a stale answer after a segment seal")
	}
}

// TestLiveEngineSetDown: the live broker has the static broker's
// topology surface — a partition marked down is skipped, the answer is
// flagged Degraded and never cached, and Health names the partition.
func TestLiveEngineSetDown(t *testing.T) {
	eng, _, _ := liveFixture(t, corpus(75, 300, 150), 3, 32,
		WithResultCache(ResultCacheConfig{Capacity: 64}))
	q := []string{"w0001", "w0002"}
	eng.SetDown(1, true)
	if h := eng.Health(); !reflect.DeepEqual(h.Down, []int{1}) || h.Units != 3 {
		t.Fatalf("health %+v, want partition 1 of 3 down", h)
	}
	for pass := 0; pass < 2; pass++ {
		qr := eng.Query(q, 20)
		if !qr.Degraded || qr.FromCache || qr.ServersContacted != 2 {
			t.Fatalf("pass %d: degraded=%v fromCache=%v contacted=%d, want an uncached degraded answer from 2 partitions",
				pass, qr.Degraded, qr.FromCache, qr.ServersContacted)
		}
		for _, r := range qr.Results {
			if r.Doc%3 == 1 {
				t.Fatalf("doc %d of the down partition in the answer", r.Doc)
			}
		}
	}
	eng.SetDown(1, false)
	if qr := eng.Query(q, 20); qr.Degraded || qr.ServersContacted != 3 {
		t.Fatalf("after recovery: degraded=%v contacted=%d", qr.Degraded, qr.ServersContacted)
	}
}

// TestLiveEngineConcurrentQueriesDuringIngest runs broker queries
// against stores that are being written and merged concurrently
// (exercised under -race by CI). Every answer must be consistent:
// correctly ordered, duplicate-free, and drawn from the known corpus.
func TestLiveEngineConcurrentQueriesDuringIngest(t *testing.T) {
	docs := corpus(73, 1200, 150)
	nparts := 3
	stores := make([]*index.SegmentStore, nparts)
	writers := make([]*index.SegmentWriter, nparts)
	for i := range stores {
		stores[i] = index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		writers[i] = index.NewSegmentWriter(stores[i], 32)
	}
	eng, err := NewLiveEngine(stores, WithResultCache(ResultCacheConfig{Capacity: 64}))
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			queries := [][]string{{"w0000"}, {"w0001", "w0002"}, {"w0003"}}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				qr := eng.Query(queries[(i+r)%len(queries)], 20)
				seen := map[int]bool{}
				for j, res := range qr.Results {
					if res.Doc < 0 || res.Doc >= len(docs) {
						t.Errorf("result doc %d outside the corpus", res.Doc)
						return
					}
					if seen[res.Doc] {
						t.Errorf("doc %d appears twice in one answer", res.Doc)
						return
					}
					seen[res.Doc] = true
					if j > 0 && qr.Results[j-1].Score < res.Score {
						t.Errorf("results out of score order at rank %d", j)
						return
					}
				}
			}
		}(r)
	}

	for _, d := range docs {
		if err := writers[d.Ext%nparts].AddDocument(d.Ext, d.Terms); err != nil {
			t.Error(err)
			break
		}
	}
	for _, w := range writers {
		if err := w.Cut(); err != nil {
			t.Error(err)
		}
	}
	close(stop)
	wg.Wait()
	if eng.NumDocs() != len(docs) {
		t.Fatalf("engine sees %d docs after ingest, want %d", eng.NumDocs(), len(docs))
	}
}
