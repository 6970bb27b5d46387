package qproc

import (
	"reflect"
	"testing"

	"dwr/internal/rank"
)

// TestDocEnginePrunedEquivalence pins the tentpole guarantee end to end:
// a DocEngine with dynamic pruning enabled returns rank-identical top-k
// (bitwise-equal scores) to an exhaustive engine, at every broker width,
// across stats modes and k. Run under -race in CI.
func TestDocEnginePrunedEquivalence(t *testing.T) {
	docs := corpus(31, 800, 1500)
	queries := zipfQueries(32, 60, 1500)
	parts := 4
	cases := []DocQueryOptions{
		{K: 10, Stats: GlobalPrecomputed},
		{K: 3, Stats: GlobalTwoRound},
		{K: 10, Stats: LocalOnly},
	}
	setProcs(t, 1)
	base := newDocEngine(t, docs, parts, exhaustiveOpts...)
	want := make([][][]rank.Result, len(cases))
	for ci, opt := range cases {
		want[ci] = make([][]rank.Result, len(queries))
		for qi, q := range queries {
			want[ci][qi] = base.Query(q, opt).Results
		}
	}
	for _, procs := range []int{1, 4, 16} {
		setProcs(t, procs)
		for _, mode := range []rank.Pruning{rank.PruneMaxScore} {
			e := newDocEngine(t, docs, parts,
				WithPruning(mode), WithThresholdSharing(false))
			for ci, opt := range cases {
				for qi, q := range queries {
					got := e.Query(q, opt)
					if !reflect.DeepEqual(want[ci][qi], got.Results) {
						t.Fatalf("GOMAXPROCS=%d mode=%d stats=%d k=%d query %d %v:\nexhaustive %v\npruned     %v",
							procs, mode, opt.Stats, opt.K, qi, q, want[ci][qi], got.Results)
					}
				}
			}
		}
	}
}

// TestDocEnginePrunedDecodesFewerBytes checks the accounting plumbing:
// PostingBytesDecoded is reported, and MaxScore pruning decodes fewer
// posting bytes than exhaustive evaluation over a query batch, both in
// one wave.
func TestDocEnginePrunedDecodesFewerBytes(t *testing.T) {
	docs := corpus(33, 1200, 1500)
	queries := zipfQueries(34, 150, 1500)
	exh := newDocEngine(t, docs, 4, exhaustiveOpts...)
	prn := newDocEngine(t, docs, 4, WithPruning(rank.PruneMaxScore), WithThresholdSharing(false))
	var exhBytes, prnBytes int64
	for _, q := range queries {
		a := exh.Query(q, DocQueryOptions{K: 10})
		b := prn.Query(q, DocQueryOptions{K: 10})
		exhBytes += a.PostingBytesDecoded
		prnBytes += b.PostingBytesDecoded
	}
	if exhBytes == 0 {
		t.Fatal("exhaustive path reported no decoded bytes")
	}
	if prnBytes >= exhBytes {
		t.Fatalf("pruned decoded %d bytes, exhaustive %d — no savings", prnBytes, exhBytes)
	}
}

// TestDocEnginePruningOptionPlumbing: per-query Pruning overrides the
// engine default, and the pruning mode is part of the result-cache key
// so differently-evaluated answers don't collide.
func TestDocEnginePruningOptionPlumbing(t *testing.T) {
	docs := corpus(35, 300, 800)
	e := newDocEngine(t, docs, 2, WithPruning(rank.PruneMaxScore))
	q := []string{"w0003", "w0011"}
	def := e.Query(q, DocQueryOptions{K: 5})
	per := e.Query(q, DocQueryOptions{K: 5, Pruning: rank.PruneMaxScore})
	if !reflect.DeepEqual(def.Results, per.Results) {
		t.Fatalf("per-query override changed the ranking: %v vs %v", def.Results, per.Results)
	}
	a := DocCacheKey(q, DocQueryOptions{K: 5})
	b := DocCacheKey(q, DocQueryOptions{K: 5, Pruning: rank.PruneMaxScore})
	if a == b {
		t.Fatal("cache key ignores the pruning mode")
	}
}
