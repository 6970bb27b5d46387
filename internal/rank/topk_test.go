package rank

import (
	"fmt"
	"math/rand"
	"reflect"
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
	dead := func(ext int) bool { return ext%5 == 3 }
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
			for _, filter := range []func(int) bool{nil, dead} {
				tk := &topK{k: k, dead: filter}
				var live []Result
				for _, r := range stream {
					tk.offer(r)
					if filter == nil || !filter(r.Doc) {
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

// TestTopKMergerMatchesSortAll: disjoint lists added in shuffled order
// merge to the sort-all answer, and after every Add, Threshold reports
// the k-th best score of everything added so far (not ok before k).
func TestTopKMergerMatchesSortAll(t *testing.T) {
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
			m := min(1+rng.Intn(30), n-i)
			lists = append(lists, sortAllTakeK(all[i:i+m], m))
			i += m
		}
		for _, k := range []int{0, 1, 2, 3, 10, 100, n + 7} {
			rng.Shuffle(len(lists), func(i, j int) { lists[i], lists[j] = lists[j], lists[i] })
			m := NewTopKMerger(k)
			var added []Result
			for _, l := range lists {
				m.Add(l)
				added = append(added, l...)
				want := sortAllTakeK(added, k)
				thr, ok := m.Threshold()
				if full := k > 0 && len(want) == k; ok != full || (full && thr != want[k-1].Score) {
					t.Fatalf("trial %d k=%d after %d results: Threshold %v ok=%v, want k-th of %v",
						trial, k, len(added), thr, ok, want)
				}
			}
			if got, want := m.Results(), sortAllTakeK(all, k); !sameRanking(want, got) {
				t.Fatalf("trial %d k=%d:\nmerged %v\nwant   %v", trial, k, got, want)
			}
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

// TestKernelAllocations pins the rank kernel's allocations at k=100: an
// evaluation allocates only the slice it returns, on a static index and
// on a one-segment view, and merging a partition's answer allocates
// nothing once the merger holds k results.
func TestKernelAllocations(t *testing.T) {
	const k = 100
	ix := pruneCorpus(95, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	q := fullPageQuery(t, ix, s, k)
	if !raceEnabled { // under -race sync.Pool drops Puts at random
		view := index.ViewOf(ix)
		evals := map[string]func(){
			"EvaluateTopK": func() { EvaluateTopK(ix, s, q, k, PruneMaxScore) },
			"EvaluateView": func() { EvaluateView(view, s, q, k, PruneMaxScore, 0) },
		}
		for name, f := range evals {
			if n := testing.AllocsPerRun(100, f); n > 1 {
				t.Errorf("%s at k=%d allocates %v times; want at most 1 (the returned slice)", name, k, n)
			}
		}
	}
	rs, _ := EvaluateOR(ix, s, q, 3*k)
	m := NewTopKMerger(k)
	m.Add(rs)
	if n := testing.AllocsPerRun(100, func() { m.Add(rs) }); n != 0 {
		t.Errorf("TopKMerger.Add allocates %v times; want 0", n)
	}
}

// BenchmarkEvaluateTopK is the microbenchmark behind bench/'s traced
// rank.eval_ns_per_posting and rank.allocs_per_eval: unseeded MaxScore
// over one partition-sized index, at the k of static_top10 and
// static_top100. ns/posting is wall time per decoded posting; allocs/op
// is allocations per evaluation.
func BenchmarkEvaluateTopK(b *testing.B) {
	ix := pruneCorpus(96, index.DefaultOptions())
	s := NewScorer(FromIndex(ix))
	queries := pruneQueries(rand.New(rand.NewSource(97)), ix, 200)
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			postings := 0
			for i := 0; i < b.N; i++ {
				_, es := EvaluateTopK(ix, s, queries[i%len(queries)], k, PruneMaxScore)
				postings += es.PostingsDecoded
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(max(postings, 1)), "ns/posting")
		})
	}
}
