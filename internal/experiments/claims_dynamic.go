package experiments

import (
	"sync"
	"sync/atomic"
	"time"

	"dwr/internal/conc"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/rank"
)

// Claim15OnlineMaintenance (C15) quantifies the §4 online-maintenance
// discussion: a dynamic index (in-memory buffer + geometrically merged
// segments, per the paper's reference [15]) serves queries while being
// updated. The paper predicts a "lockout effect" from the update path's
// index lock; the snapshot-swap design (immutable segments behind an
// atomically swapped manifest) removes it, so query latency under a
// concurrent update stream stays flat and the table reports manifest
// swaps instead of lock-hold time. The paper's second observation —
// term partitioning amplifies update cost because "terms that require
// frequent updates might be spread across different servers" — is
// measured as the number of servers a single-document update must touch
// under each partitioning.
func Claim15OnlineMaintenance() *Result {
	f := sharedFixture()
	r := newResult("C15")

	// Phase 1: concurrent updates and queries against the dynamic index,
	// for two buffer sizes. Small buffers seal segments often (many
	// small swaps); large buffers seal rarely (few large swaps).
	run := func(bufferCap int) (p50, p99 float64, swaps uint64, segments int) {
		store := index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		w := index.NewSegmentWriter(store, bufferCap)
		var stop atomic.Bool
		var lat metrics.Sample
		var latMu sync.Mutex
		queries := queryTerms(f.test, 200)

		// Task 0 is the update stream, task 1 the query loop; the query
		// loop polls the stop flag the updater raises when it finishes.
		conc.Do(2, 2, func(task int) {
			if task == 0 {
				for _, doc := range f.docs[:1200] {
					if err := w.AddDocument(doc.Ext, doc.Terms); err != nil {
						break
					}
				}
				stop.Store(true)
				return
			}
			i := 0
			for !stop.Load() {
				q := queries[i%len(queries)]
				i++
				t0 := time.Now() //dwrlint:allow wallclock measures real search latency under concurrent updates; ranked results stay deterministic
				v := w.View()
				rank.EvaluateView(v, rank.NewScorer(rank.FromGlobal(v.LocalStats(q))), q, 10, rank.PruneNone, 0)
				ms := float64(time.Since(t0).Microseconds()) / 1000 //dwrlint:allow wallclock measures real search latency under concurrent updates; ranked results stay deterministic
				latMu.Lock()
				lat.Add(ms)
				latMu.Unlock()
			}
		})
		st := store.Stats()
		return lat.Quantile(0.5), lat.Quantile(0.99), st.Gen, st.Segments
	}
	t := metrics.NewTable("query latency under a concurrent update stream (1,200 docs)",
		"buffer", "query p50 (ms)", "query p99 (ms)", "manifest swaps", "segments")
	small50, small99, smallSwaps, smallSeg := run(16)
	large50, large99, largeSwaps, largeSeg := run(256)
	t.AddRow("16 docs (frequent small swaps)", small50, small99, smallSwaps, smallSeg)
	t.AddRow("256 docs (rare large swaps)", large50, large99, largeSwaps, largeSeg)
	r.Tables = append(r.Tables, t)

	// Phase 2: lockout amplification under term partitioning. A single
	// document's update touches 1 partition in a document-partitioned
	// system, but every term server owning any of its terms in a
	// term-partitioned one.
	const k = 8
	tp := partition.BinPackTerms(f.central.Terms(), func(t string) float64 {
		return float64(f.central.DF(t))
	}, k)
	var w metrics.Welford
	for _, doc := range f.docs[:300] {
		servers := map[int]bool{}
		for _, term := range doc.Terms {
			if p, ok := tp.Assign[term]; ok {
				servers[p] = true
			}
		}
		w.Add(float64(len(servers)))
	}
	amp := metrics.NewTable("servers locked by a single-document update (8 servers)",
		"partitioning", "avg servers locked", "max")
	amp.AddRow("document", 1, 1)
	amp.AddRow("term", w.Mean(), w.Max())
	r.Tables = append(r.Tables, amp)

	r.Timings = map[string]float64{"small_p99": small99, "large_p99": large99}
	r.Values = map[string]float64{
		"small_swaps":       float64(smallSwaps),
		"large_swaps":       float64(largeSwaps),
		"doc_lock_servers":  1,
		"term_lock_servers": w.Mean(),
	}
	r.Notes = append(r.Notes,
		"paper: the dynamic index 'constrains the capacity and the response time of the system since the update operation usually requires locking the index ... even more problematic in the case of term partitioned distributed IR systems'",
		"this implementation avoids the lockout: maintenance publishes immutable snapshots and readers never wait on the update path")
	return r
}
