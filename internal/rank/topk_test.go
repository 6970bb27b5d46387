package rank

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"dwr/internal/index"
)

// sortAllTakeK is the reference the top-k kernel is checked against: it
// shares no code with topK or SortResults. It sorts a copy of rs by
// descending score, ascending doc and keeps the first k.
func sortAllTakeK(rs []Result, k int) []Result {
	all := append([]Result(nil), rs...)
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if k < 0 {
		k = 0
	}
	if k < len(all) {
		all = all[:k]
	}
	return all
}

// tieStream draws n results whose scores come from four values and whose
// docs repeat, so most comparisons the heap makes are ties.
func tieStream(rng *rand.Rand, n int) []Result {
	scores := []float64{0.5, 1, 1.25, 2}
	rs := make([]Result, n)
	for i := range rs {
		rs[i] = Result{Doc: rng.Intn(n/2 + 1), Score: scores[rng.Intn(len(scores))]}
	}
	return rs
}

// sameRanking compares two rankings, treating nil and empty as equal.
func sameRanking(a, b []Result) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// TestTopKMatchesSortAll checks the heap on its own terms: every
// equivalence suite runs both of its sides through topK, so a heap bug
// would pass them all. Over tie-heavy streams offered at random, best
// first and worst first, with and without a dead filter, offer + results
// must equal sorting everything and taking k, and the root must be the
// k-th best once the heap is full.
func TestTopKMatchesSortAll(t *testing.T) {
	rng := rand.New(rand.NewSource(91))
	dead := map[int]bool{}
	for ext := 3; ext < 250; ext += 5 {
		dead[ext] = true
	}
	for trial := 0; trial < 200; trial++ {
		stream := tieStream(rng, rng.Intn(250))
		switch trial % 3 {
		case 1:
			stream = sortAllTakeK(stream, len(stream))
		case 2:
			best := sortAllTakeK(stream, len(stream))
			for i := range stream {
				stream[i] = best[len(best)-1-i]
			}
		}
		for _, k := range []int{0, 1, 2, 3, 10, 100, len(stream) + 7} {
			for _, filter := range []map[int]bool{nil, dead} {
				tk := &topK{k: k, dead: filter}
				var live []Result
				for _, r := range stream {
					tk.offer(r)
					if !filter[r.Doc] {
						live = append(live, r)
					}
				}
				want := sortAllTakeK(live, k)
				if got := tk.results(); !sameRanking(want, got) {
					t.Fatalf("trial %d k=%d dead=%v:\ngot  %v\nwant %v", trial, k, filter != nil, got, want)
				}
				if k > 0 && len(want) == k && tk.rs[0] != want[k-1] {
					t.Fatalf("trial %d k=%d: root %v, k-th best %v", trial, k, tk.rs[0], want[k-1])
				}
			}
		}
	}
}

// TestTopKMergerMatchesSortAll: best-first lists added in shuffled
// order merge to the sort-all answer, and after every Add, Threshold
// reports the k-th best score of everything added so far (not ok before
// k). One merger serves every k through Reset, as the broker's pooled
// one does. Fixed cases pin the merge's edges: ties at the k-th place
// with documents on both sides of the cut, empty lists between full
// ones, a list whose best cannot enter a full merger, and k above the
// total.
func TestTopKMergerMatchesSortAll(t *testing.T) {
	var m TopKMerger
	check := func(name string, k int, lists [][]Result) {
		t.Helper()
		m.Reset(k)
		var added []Result
		for _, l := range lists {
			m.Add(l)
			added = append(added, l...)
			want := sortAllTakeK(added, k)
			thr, ok := m.Threshold()
			if full := k > 0 && len(want) == k; ok != full || (full && thr != want[k-1].Score) {
				t.Fatalf("%s k=%d after %d results: Threshold %v ok=%v, want k-th of %v",
					name, k, len(added), thr, ok, want)
			}
		}
		if got, want := m.Results(), sortAllTakeK(added, k); !sameRanking(want, got) {
			t.Fatalf("%s k=%d:\nmerged %v\nwant   %v", name, k, got, want)
		}
	}
	for _, c := range []struct {
		name  string
		k     int
		lists [][]Result
	}{
		{"ties across the cut", 3, [][]Result{
			{{Doc: 1, Score: 2}, {Doc: 4, Score: 1}, {Doc: 7, Score: 1}},
			{{Doc: 2, Score: 1}, {Doc: 5, Score: 1}},
			{{Doc: 3, Score: 1}, {Doc: 6, Score: 0.5}},
		}},
		{"empty lists between full ones", 2, [][]Result{
			{}, {{Doc: 1, Score: 3}, {Doc: 2, Score: 1}}, nil, {},
			{{Doc: 3, Score: 2}, {Doc: 4, Score: 0}}, {},
		}},
		{"a best that cannot enter", 2, [][]Result{
			{{Doc: 1, Score: 3}, {Doc: 2, Score: 2}},
			{{Doc: 3, Score: 2}, {Doc: 4, Score: 1}},
			{{Doc: 5, Score: 1}},
		}},
		{"k above the total", 10, [][]Result{
			{{Doc: 2, Score: 1}, {Doc: 4, Score: 1}},
			{{Doc: 1, Score: 1}, {Doc: 3, Score: 0.5}},
		}},
	} {
		check(c.name, c.k, c.lists)
	}
	rng := rand.New(rand.NewSource(92))
	for trial := 0; trial < 100; trial++ {
		n := rng.Intn(200)
		all := tieStream(rng, n)
		for i := range all {
			all[i].Doc = i // disjoint partitions: every doc once
		}
		rng.Shuffle(n, func(i, j int) { all[i], all[j] = all[j], all[i] })
		var lists [][]Result
		for i := 0; i < n; {
			size := min(1+rng.Intn(30), n-i)
			lists = append(lists, sortAllTakeK(all[i:i+size], size))
			i += size
		}
		for _, k := range []int{0, 1, 2, 3, 10, 100, n + 7} {
			rng.Shuffle(len(lists), func(i, j int) { lists[i], lists[j] = lists[j], lists[i] })
			check(fmt.Sprintf("trial %d", trial), k, lists)
		}
	}
}

// TestMergeResultsDedupMatchesSortAll: replica lists that share documents
// merge to each document's best score once, ranked as sort-all ranks it.
func TestMergeResultsDedupMatchesSortAll(t *testing.T) {
	rng := rand.New(rand.NewSource(93))
	for trial := 0; trial < 100; trial++ {
		lists := make([][]Result, 1+rng.Intn(4))
		best := make(map[int]float64)
		for i := range lists {
			lists[i] = tieStream(rng, rng.Intn(120))
			seen := make(map[int]bool) // one entry per doc within a replica
			kept := lists[i][:0]
			for _, r := range lists[i] {
				if !seen[r.Doc] {
					seen[r.Doc] = true
					kept = append(kept, r)
					if s, ok := best[r.Doc]; !ok || r.Score > s {
						best[r.Doc] = r.Score
					}
				}
			}
			lists[i] = kept
		}
		var uniq []Result
		for doc, score := range best {
			uniq = append(uniq, Result{Doc: doc, Score: score})
		}
		for _, k := range []int{0, 1, 2, 3, 10, 100, len(uniq) + 7} {
			if got, want := MergeResultsDedup(k, lists...), sortAllTakeK(uniq, k); !sameRanking(want, got) {
				t.Fatalf("trial %d k=%d:\nmerged %v\nwant   %v", trial, k, got, want)
			}
		}
	}
}

// longestList returns the term of ix with the most postings, the first
// in term order on a tie.
func longestList(ix *index.Index) string {
	best := ""
	for _, t := range ix.Terms() {
		if ix.DF(t) > ix.DF(best) {
			best = t
		}
	}
	return best
}

// fullPageQuery returns a multi-term query of ix with at least k hits.
func fullPageQuery(t testing.TB, ix *index.Index, s *Scorer, k int) []string {
	rng := rand.New(rand.NewSource(94))
	for _, q := range pruneQueries(rng, ix, 500) {
		if rs, _ := EvaluateOR(ix, s, q, k); len(q) > 1 && len(rs) == k {
			return q
		}
	}
	t.Fatalf("no query fills a page of %d", k)
	return nil
}

// beyondTheBest returns a seed between the best score of q over v and
// QueryBound: a partition the broker still contacts, holding no
// document that can reach the seed.
func beyondTheBest(t testing.TB, v *index.Manifest, s *Scorer, q []string) float64 {
	best, _ := EvaluateView(v, s, q, 1, PruneNone, 0)
	bound := QueryBound(v, s, q)
	if len(best) == 0 || !(bound > best[0].Score*(1+1e-6)) {
		t.Fatalf("query %v: bound %g leaves no room above the best score %v", q, bound, best)
	}
	return (best[0].Score + bound) / 2
}

// TestKernelAllocations pins the rank kernel's allocations at k=100: an
// evaluation allocates only the slice it returns — on a static index,
// one list or several, on a one-segment view, and on an eight-segment
// view with tombstones pending, exhaustive or pruned — a seeded
// evaluation that no document survives returns nil and allocates
// nothing, a warm merger merges four partitions' answers without
// allocating, and Results allocates only its copy.
func TestKernelAllocations(t *testing.T) {
	const k = 100
	ix := pruneCorpus(95, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	q := fullPageQuery(t, ix, s, k)
	if !raceEnabled { // under -race sync.Pool drops Puts at random
		view := index.ViewOf(ix)
		tiered, compacted := tieredView(t, viewCorpus(98, 2040), []int{7, 700, 1500, 2035})
		ts := NewScorer(FromGlobal(tiered.LocalStats(nil)))
		tq := fullPageQuery(t, compacted, ts, k)
		one := []string{longestList(ix)}
		evals := map[string]func(){
			"EvaluateTopK":                    func() { EvaluateTopK(ix, s, q, k, PruneMaxScore) },
			"EvaluateTopK one list":           func() { EvaluateTopK(ix, s, one, k, PruneMaxScore) },
			"EvaluateView":                    func() { EvaluateView(view, s, q, k, PruneMaxScore, 0) },
			"EvaluateView tiered, exhaustive": func() { EvaluateView(tiered, ts, tq, k, PruneNone, 0) },
			"EvaluateView tiered, MaxScore":   func() { EvaluateView(tiered, ts, tq, k, PruneMaxScore, 0) },
		}
		for name, f := range evals {
			if n := testing.AllocsPerRun(100, f); n > 1 {
				t.Errorf("%s at k=%d allocates %v times; want at most 1 (the returned slice)", name, k, n)
			}
		}
		// Seeded above the best score yet below the query's bound: the
		// broker contacts the partition, and every document it scores
		// loses to the seed, so none is held or copied.
		seed, tseed := beyondTheBest(t, view, s, q), beyondTheBest(t, tiered, ts, tq)
		lost := map[string]func() []Result{
			"EvaluateView": func() []Result {
				rs, _ := EvaluateView(view, s, q, k, PruneMaxScore, seed)
				return rs
			},
			"EvaluateView tiered": func() []Result {
				rs, _ := EvaluateView(tiered, ts, tq, k, PruneMaxScore, tseed)
				return rs
			},
		}
		for name, f := range lost {
			if rs := f(); rs != nil {
				t.Errorf("%s seeded past its best score returns %v; want nil", name, rs)
			}
			if n := testing.AllocsPerRun(100, func() { f() }); n != 0 {
				t.Errorf("%s seeded past its best score allocates %v times; want 0", name, n)
			}
		}
	}
	rs, _ := EvaluateOR(ix, s, q, 4*k)
	lists := make([][]Result, 4) // every fourth result: four best-first answers
	for i, r := range rs {
		lists[i%4] = append(lists[i%4], r)
	}
	var m TopKMerger
	merge := func() {
		m.Reset(k)
		for _, l := range lists {
			m.Add(l)
		}
	}
	if n := testing.AllocsPerRun(100, merge); n != 0 {
		t.Errorf("TopKMerger.Add allocates %v times; want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { m.Results() }); n != 1 {
		t.Errorf("TopKMerger.Results allocates %v times; want 1 (the returned slice)", n)
	}
}

// BenchmarkEvaluateTopK is the microbenchmark behind bench/'s traced
// rank.eval_ns_per_posting and rank.allocs_per_eval: unseeded MaxScore
// over one partition-sized index, at the k of static_top10 and
// static_top100, over queries of one to four terms and over the one-term
// queries of their first terms, which take the block-at-a-time one-list
// path. The seeded cases are the second-wave evaluations behind
// qproc.query_us: the same queries, each seeded with the k-th score of
// the exhaustive answer over 4 000 further documents of the corpus — a
// first wave's two partitions, half the corpus when this index is one
// of four — scored with the same statistics; a query they hold fewer
// than k matches of runs unseeded, as the broker would run it. ns/posting
// is wall time per decoded posting; allocs/op is allocations per
// evaluation.
func BenchmarkEvaluateTopK(b *testing.B) {
	ix := pruneCorpus(96, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	queries := pruneQueries(rand.New(rand.NewSource(97)), ix, 200)
	oneTerm := make([][]string, len(queries))
	for i, q := range queries {
		oneTerm[i] = q[:1]
	}
	// viewCorpus(96, n) repeats pruneCorpus(96)'s 2 000 documents first.
	ob := index.NewBuilder(index.DefaultOptions())
	for _, d := range viewCorpus(96, 6000)[2000:] {
		if err := ob.AddDocument(d.Ext, d.Terms); err != nil {
			b.Fatal(err)
		}
	}
	otherHalf := index.MustBuild(ob)
	for _, set := range []struct {
		name    string
		queries [][]string
		seeded  bool
	}{{"", queries, false}, {"one-term/", oneTerm, false}, {"seeded/", queries, true}} {
		for _, k := range []int{10, 100} {
			seeds := make([]float64, len(set.queries))
			if set.seeded {
				for i, q := range set.queries {
					if rs, _ := EvaluateOR(otherHalf, s, q, k); len(rs) == k {
						seeds[i] = rs[k-1].Score
					}
				}
			}
			b.Run(fmt.Sprintf("%sk=%d", set.name, k), func(b *testing.B) {
				b.ReportAllocs()
				postings := 0
				for i := 0; i < b.N; i++ {
					j := i % len(set.queries)
					_, es := evaluateTopK(ix, s, set.queries[j], k, PruneMaxScore, seeds[j])
					postings += es.PostingsDecoded
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(postings, 1)), "ns/posting")
			})
		}
	}
}

// BenchmarkTopKMerger is the microbenchmark behind the broker's share
// of bench/'s traced qproc.query_us: one query's merge — Reset, four
// partitions' best-first answers, Results — at the k of static_top10
// and static_top100, each answer k long.
func BenchmarkTopKMerger(b *testing.B) {
	rng := rand.New(rand.NewSource(101))
	for _, k := range []int{10, 100} {
		lists := make([][]Result, 4)
		for p := range lists {
			for i := 0; i < k; i++ {
				lists[p] = append(lists[p], Result{Doc: 4*i + p, Score: rng.Float64()})
			}
			lists[p] = sortAllTakeK(lists[p], k)
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			var m TopKMerger
			for i := 0; i < b.N; i++ {
				m.Reset(k)
				for _, l := range lists {
					m.Add(l)
				}
				m.Results()
			}
		})
	}
}

// BenchmarkEvaluateView is the microbenchmark behind bench/'s traced
// qproc.live_query_us: one partition of a LiveEngine, an eight-segment
// view with tombstones pending, at k=10, exhaustive and MaxScore (every
// engine's default); and a view shaped like live_ingest's — 4 000
// documents through a SegmentWriter at 128 a segment, merged at radix 3
// — under MaxScore at k=10, over mixed queries of one to four terms and
// over their first terms alone. ns/posting is wall time per decoded
// posting; allocs/op is allocations per evaluation; onelist-segs/op is
// how many of the view's segments (segs) hold exactly one of the
// query's lists, the segments MaxScore hands to oneList.
func BenchmarkEvaluateView(b *testing.B) {
	view, compacted := tieredView(b, viewCorpus(99, 2040), []int{7, 700, 1500, 2035})
	queries := pruneQueries(rand.New(rand.NewSource(100)), compacted, 200)
	scorers := make([]*Scorer, len(queries))
	for i, q := range queries {
		scorers[i] = NewScorer(FromGlobal(view.LocalStats(q)))
	}
	for _, mode := range []Pruning{PruneNone, PruneMaxScore} {
		b.Run(fmt.Sprintf("pruning=%d", mode), func(b *testing.B) {
			b.ReportAllocs()
			postings := 0
			for i := 0; i < b.N; i++ {
				j := i % len(queries)
				_, es := EvaluateView(view, scorers[j], queries[j], 10, mode, 0)
				postings += es.PostingsDecoded
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(postings, 1)), "ns/posting")
		})
	}

	w := segmented(b, viewCorpus(101, 4000), 128)
	live := w.View()
	whole, err := w.Build()
	if err != nil {
		b.Fatal(err)
	}
	mixed := pruneQueries(rand.New(rand.NewSource(102)), whole, 200)
	oneTerm := make([][]string, len(mixed))
	for i, q := range mixed {
		oneTerm[i] = q[:1]
	}
	for _, set := range []struct {
		name    string
		queries [][]string
	}{{"mixed", mixed}, {"one-term", oneTerm}} {
		scorers := make([]*Scorer, len(set.queries))
		oneList := 0
		for i, q := range set.queries {
			scorers[i] = NewScorer(FromGlobal(live.LocalStats(q)))
			for _, seg := range live.Segments() {
				lists := 0
				for j, t := range q {
					if !slices.Contains(q[:j], t) && seg.DF(t) > 0 {
						lists++
					}
				}
				if lists == 1 {
					oneList++
				}
			}
		}
		b.Run("live_ingest-shaped/"+set.name, func(b *testing.B) {
			b.ReportAllocs()
			postings := 0
			for i := 0; i < b.N; i++ {
				j := i % len(set.queries)
				_, es := EvaluateView(live, scorers[j], set.queries[j], 10, PruneMaxScore, 0)
				postings += es.PostingsDecoded
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(postings, 1)), "ns/posting")
			b.ReportMetric(float64(oneList)/float64(len(set.queries)), "onelist-segs/op")
			b.ReportMetric(float64(len(live.Segments())), "segs")
		})
	}
}
