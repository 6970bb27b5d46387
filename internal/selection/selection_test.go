package selection

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/querylog"
)

// buildPartitionedIndexes creates 3 partitions with disjoint vocabularies
// so selection is unambiguous: partition p owns terms "p<p>t<j>".
func buildPartitionedIndexes(t *testing.T) []index.Stats {
	t.Helper()
	var stats []index.Stats
	for p := 0; p < 3; p++ {
		b := index.NewBuilder(index.DefaultOptions())
		for d := 0; d < 50; d++ {
			terms := make([]string, 0, 12)
			for j := 0; j < 12; j++ {
				terms = append(terms, fmt.Sprintf("p%dt%d", p, j%6))
			}
			b.AddDocument(p*1000+d, terms)
		}
		stats = append(stats, index.MustBuild(b).LocalStats(nil))
	}
	return stats
}

func TestCORIPicksOwningPartition(t *testing.T) {
	c := NewCORI(buildPartitionedIndexes(t))
	if c.K() != 3 {
		t.Fatalf("K = %d", c.K())
	}
	for p := 0; p < 3; p++ {
		got := c.Rank([]string{fmt.Sprintf("p%dt0", p), fmt.Sprintf("p%dt1", p)})
		if got[0] != p {
			t.Fatalf("query for partition %d terms ranked %v", p, got)
		}
		if len(got) != 3 {
			t.Fatalf("rank returned %d partitions", len(got))
		}
	}
}

func TestCORIUnknownTermsStillRanksAll(t *testing.T) {
	c := NewCORI(buildPartitionedIndexes(t))
	got := c.Rank([]string{"zzz"})
	if len(got) != 3 {
		t.Fatalf("rank = %v", got)
	}
	seen := map[int]bool{}
	for _, p := range got {
		seen[p] = true
	}
	if len(seen) != 3 {
		t.Fatalf("rank not a permutation: %v", got)
	}
}

func trainData() (partition.CoClusterResult, []partition.QueryDocs) {
	rng := rand.New(rand.NewSource(1))
	all := make([]int, 300)
	for i := range all {
		all[i] = i
	}
	var train []partition.QueryDocs
	for q := 0; q < 60; q++ {
		topic := q % 3
		var docs []int
		for j := 0; j < 8; j++ {
			docs = append(docs, topic*100+rng.Intn(100))
		}
		train = append(train, partition.QueryDocs{
			Key:   fmt.Sprintf("topic%d query%d", topic, q),
			Terms: []string{fmt.Sprintf("topic%d", topic), fmt.Sprintf("query%d", q)},
			Docs:  docs,
		})
	}
	res := partition.CoClusterDocs(rng, train, all, 3, 20)
	return res, train
}

func TestQueryDrivenExactHit(t *testing.T) {
	res, train := trainData()
	qd := newQueryDriven(res, train)
	q := train[0]
	ranked := qd.Rank(q.Terms)
	// The top-ranked partition must hold the plurality of q's docs.
	counts := make([]int, 3)
	for _, d := range q.Docs {
		counts[res.Partition.Assign[d]]++
	}
	best := 0
	for p, c := range counts {
		if c > counts[best] {
			best = p
		}
	}
	if ranked[0] != best {
		t.Fatalf("exact-hit rank %v, plurality partition %d (counts %v)", ranked, best, counts)
	}
}

func TestQueryDrivenTermBackoff(t *testing.T) {
	res, train := trainData()
	qd := newQueryDriven(res, train)
	// Unseen query sharing the topic term should still route to the
	// topic's partitions.
	ranked := qd.Rank([]string{"topic1", "neverseenbefore"})
	// Compare against the average distribution of topic-1 training queries.
	avg := make([]float64, 3)
	n := 0
	for _, q := range train {
		if q.Terms[0] == "topic1" {
			for p, v := range res.QueryPart[q.Key] {
				avg[p] += v
			}
			n++
		}
	}
	best := 0
	for p := range avg {
		if avg[p] > avg[best] {
			best = p
		}
	}
	if ranked[0] != best {
		t.Fatalf("term backoff ranked %v, want %d first (avg %v)", ranked, best, avg)
	}
}

func TestQueryDrivenFallback(t *testing.T) {
	res, train := trainData()
	qd := newQueryDriven(res, train)
	ranked := qd.Rank([]string{"utterly", "unknown"})
	if len(ranked) != 3 {
		t.Fatalf("fallback rank = %v", ranked)
	}
	// Must rank largest partition first.
	sizes := res.Partition.Sizes()
	best := 0
	for p, s := range sizes {
		if s > sizes[best] {
			best = p
		}
	}
	if ranked[0] != best {
		t.Fatalf("fallback ranked %v, largest partition is %d (%v)", ranked, best, sizes)
	}
}

func TestRandomSelectorPermutation(t *testing.T) {
	r := NewRandom(2, 5)
	for i := 0; i < 20; i++ {
		got := r.Rank([]string{"x"})
		seen := map[int]bool{}
		for _, p := range got {
			if p < 0 || p >= 5 || seen[p] {
				t.Fatalf("not a permutation: %v", got)
			}
			seen[p] = true
		}
	}
}

func TestRecallAtN(t *testing.T) {
	res, train := trainData()
	qd := newQueryDriven(res, train)
	q := train[3]
	// Perfect recall when selecting all partitions.
	r3 := RecallAtN(qd, q.Terms, q.Docs, res.Partition.Assign, 3)
	if r3 != 1 {
		t.Fatalf("recall@3 = %v, want 1", r3)
	}
	r1 := RecallAtN(qd, q.Terms, q.Docs, res.Partition.Assign, 1)
	if r1 < 0 || r1 > 1 {
		t.Fatalf("recall@1 = %v out of range", r1)
	}
	if RecallAtN(qd, q.Terms, nil, res.Partition.Assign, 1) != 1 {
		t.Fatal("empty truth should give recall 1")
	}
}

// TestCORIRankDeterministicAcrossReplays is the seeded determinism
// property: two independently built CORI selectors over the same
// statistics rank an identical query stream identically, scores and
// tie-breaks included.
func TestCORIRankDeterministicAcrossReplays(t *testing.T) {
	queries := [][]string{
		{"p0t0"}, {"p1t2", "p2t3"}, {"zzz"}, {"p0t1", "p0t2", "p1t0"}, {"p2t5"},
	}
	run := func() []string {
		c := NewCORI(buildPartitionedIndexes(t))
		var out []string
		for _, q := range queries {
			out = append(out, fmt.Sprintf("%v", c.RankScored(q)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestQueryDrivenRankDeterministicAcrossReplays replays the same
// training log through two independent builds; the derived selectors
// must agree on every query, including backoff and fallback paths.
func TestQueryDrivenRankDeterministicAcrossReplays(t *testing.T) {
	queries := [][]string{
		{"topic0", "query1"}, {"topic2", "neverseen"}, {"utterly", "unknown"}, {"topic1"},
	}
	run := func() []string {
		res, train := trainData()
		qd := newQueryDriven(res, train)
		var out []string
		for _, q := range queries {
			out = append(out, fmt.Sprintf("%v", qd.RankScored(q)))
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// TestScoredTieBreakAscending: all-equal scores must come back in
// ascending partition order — the stable tie-break both brokers and
// mediators rely on for replay identity.
func TestScoredTieBreakAscending(t *testing.T) {
	// Identical statistics in every partition force exact score ties.
	b := index.NewBuilder(index.DefaultOptions())
	for d := 0; d < 20; d++ {
		b.AddDocument(d, []string{"same", "words", "everywhere"})
	}
	st := index.MustBuild(b).LocalStats(nil)
	c := NewCORI([]index.Stats{st, st, st, st})
	for _, q := range [][]string{{"same"}, {"words", "everywhere"}, {"zzz"}} {
		sp := c.RankScored(q)
		for i := range sp {
			if sp[i].Part != i {
				t.Fatalf("query %v: tied ranks not ascending: %v", q, sp)
			}
			if i > 0 && sp[i].Score != sp[i-1].Score {
				t.Fatalf("query %v: fixture scores not tied: %v", q, sp)
			}
		}
	}
}

// TestRandomSeededDeterminism: Random draws its RNG from internal/randx,
// so two selectors with one seed emit identical permutation streams and
// different seeds diverge.
func TestRandomSeededDeterminism(t *testing.T) {
	a, b, c := NewRandom(42, 6), NewRandom(42, 6), NewRandom(43, 6)
	same, diff := true, false
	for i := 0; i < 30; i++ {
		pa, pb, pc := a.Rank(nil), b.Rank(nil), c.Rank(nil)
		if fmt.Sprint(pa) != fmt.Sprint(pb) {
			same = false
		}
		if fmt.Sprint(pa) != fmt.Sprint(pc) {
			diff = true
		}
	}
	if !same {
		t.Fatal("equal seeds diverged")
	}
	if !diff {
		t.Fatal("distinct seeds never diverged in 30 draws")
	}
}

// TestRecallAtNEdgeCases: empty training set, n larger than the number
// of partitions, and all-equal selection scores must all stay in range
// and well-defined.
func TestRecallAtNEdgeCases(t *testing.T) {
	res, train := trainData()
	qd := newQueryDriven(res, train)
	q := train[2]
	// n far beyond K clamps to selecting everything: perfect recall.
	if r := RecallAtN(qd, q.Terms, q.Docs, res.Partition.Assign, 99); r != 1 {
		t.Fatalf("recall@99 = %v, want 1 (n clamps to K)", r)
	}
	// n = 0 selects nothing.
	if r := RecallAtN(qd, q.Terms, q.Docs, res.Partition.Assign, 0); r != 0 {
		t.Fatalf("recall@0 = %v, want 0", r)
	}
	// Empty training set: the selector degrades to the size fallback but
	// stays usable.
	empty := newQueryDriven(partition.CoClusterResult{
		Partition: res.Partition,
		QueryPart: map[string][]float64{},
	}, nil)
	ranked := empty.Rank(q.Terms)
	if len(ranked) != 3 {
		t.Fatalf("empty-train rank = %v", ranked)
	}
	if r := RecallAtN(empty, q.Terms, q.Docs, res.Partition.Assign, 3); r != 1 {
		t.Fatalf("empty-train recall@K = %v, want 1", r)
	}
	// All-equal scores (unknown terms, equal-size partitions would tie):
	// recall must still be deterministic and in range.
	r1 := RecallAtN(qd, []string{"zzz"}, q.Docs, res.Partition.Assign, 1)
	r2 := RecallAtN(qd, []string{"zzz"}, q.Docs, res.Partition.Assign, 1)
	if r1 != r2 {
		t.Fatalf("tied-score recall not deterministic: %v vs %v", r1, r2)
	}
	if r1 < 0 || r1 > 1 {
		t.Fatalf("recall out of range: %v", r1)
	}
}

func TestQueryDrivenBeatsRandomOnTraining(t *testing.T) {
	res, train := trainData()
	qd := newQueryDriven(res, train)
	rnd := NewRandom(3, 3)
	var qdSum, rndSum float64
	for _, q := range train {
		qdSum += RecallAtN(qd, q.Terms, q.Docs, res.Partition.Assign, 1)
		rndSum += RecallAtN(rnd, q.Terms, q.Docs, res.Partition.Assign, 1)
	}
	if qdSum <= rndSum {
		t.Fatalf("query-driven recall %v not above random %v", qdSum, rndSum)
	}
}

// TestTrainKeepsTheHeadOfTheLog: Train co-clusters by the 600 most
// frequent distinct queries, ties broken by key, each contributing its
// top 10 documents. 700 distinct queries each match 11
// documents of their own; 590 are asked three times, 30 twice (so the
// cut falls inside that tie) and 80 once, and the log lists the rarest
// first so arrival order cannot pass for popularity.
func TestTrainKeepsTheHeadOfTheLog(t *testing.T) {
	const distinct, perQuery, head, topK = 700, 11, 600, 10
	name := func(i int) string { return fmt.Sprintf("q%04d", i*337%1000) }
	freq := func(i int) int {
		switch {
		case i < 590:
			return 3
		case i < 620:
			return 2
		}
		return 1
	}
	b := index.NewBuilder(index.DefaultOptions())
	var all []int
	for i := 0; i < distinct; i++ {
		for j := 0; j < perQuery; j++ {
			terms := make([]string, j+1)
			for n := range terms {
				terms[n] = name(i)
			}
			b.AddDocument(i*perQuery+j, terms)
			all = append(all, i*perQuery+j)
		}
	}
	var log []querylog.Query
	for round := 0; round < 3; round++ {
		for i := distinct - 1; i >= 0; i-- {
			if freq(i) > round {
				log = append(log, querylog.Query{Key: name(i), Terms: []string{name(i)}})
			}
		}
	}

	want := map[string]bool{}
	var tied []string
	for i := 0; i < distinct; i++ {
		switch freq(i) {
		case 3:
			want[name(i)] = true
		case 2:
			tied = append(tied, name(i))
		}
	}
	sort.Strings(tied)
	for _, key := range tied[:head-len(want)] {
		want[key] = true
	}

	res, _ := Train(rand.New(rand.NewSource(1)), log, index.MustBuild(b), all, 4)
	if len(res.QueryPart) != head {
		t.Fatalf("trained on %d queries, want %d", len(res.QueryPart), head)
	}
	for key := range want {
		if _, ok := res.QueryPart[key]; !ok {
			t.Errorf("head query %q not trained on", key)
		}
	}
	never := map[int]bool{}
	for _, d := range res.NeverRecalled {
		never[d] = true
	}
	for i := 0; i < distinct; i++ {
		recalled := 0
		for j := 0; j < perQuery; j++ {
			if !never[i*perQuery+j] {
				recalled++
			}
		}
		wantN := 0
		if want[name(i)] {
			wantN = topK
		}
		if recalled != wantN {
			t.Errorf("query %q recalled %d documents, want %d", name(i), recalled, wantN)
		}
	}
}
