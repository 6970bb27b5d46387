package main

import (
	"errors"
	"fmt"
	"io"

	"dwr/internal/index"
	"dwr/internal/rank"
)

// pruningConfig sizes the exhaustive-vs-pruned comparison.
type pruningConfig struct {
	Seed    int64 `json:"seed"`
	Docs    int   `json:"docs"`
	Queries int   `json:"queries"`
}

var pruningScenario = define("pruning",
	"exhaustive vs MaxScore top-k on one index (k=10, 100), and AND at block size 32/128/512: decode work, QPS, rank identity",
	pruningConfig{Seed: 42, Docs: 8000, Queries: 400}, measurePruning)

// measurePruning runs the dynamic-pruning evaluator against the
// exhaustive OR baseline on a seeded Zipf corpus, counting the decode
// work the per-term score bounds and the skip table let the pruned path
// skip; then the conjunctive evaluator on the same queries at three
// posting-block sizes, counting what tighter or coarser skips decode.
func measurePruning(w io.Writer, c pruningConfig) ([]row, error) {
	if c.Docs < 1 || c.Queries < 1 {
		return nil, errors.New("docs and queries must be positive")
	}
	docs, queries := zipfWorkload(c.Seed, c.Docs, c.Queries)
	blockSizes := []int{32, 128, 512}
	byBlock := map[int]*index.Index{}
	for _, bs := range blockSizes {
		o := index.DefaultOptions()
		o.BlockSize = bs
		b := index.NewBuilder(o)
		for _, d := range docs {
			b.AddDocument(d.Ext, d.Terms)
		}
		byBlock[bs] = index.MustBuild(b)
	}
	// The OR rows run on the default layout (index.DefaultOptions' block
	// size is 128); block size changes no statistic, so one scorer
	// serves every index.
	ix := byBlock[128]
	s := rank.NewScorer(rank.FromIndex(ix))

	rows := []row{{Name: "index", Counters: map[string]float64{"index_bytes": float64(ix.SizeBytes())}}}
	for _, k := range []int{10, 100} {
		// Exhaustive baselines double as the equivalence reference.
		want := make([][]rank.Result, len(queries))
		for i, q := range queries {
			want[i], _ = rank.EvaluateTopK(ix, s, q, k, rank.PruneNone)
		}
		var exhaustiveQPS float64
		for _, m := range []struct {
			name string
			mode rank.Pruning
		}{
			{"exhaustive", rank.PruneNone},
			{"maxscore", rank.PruneMaxScore},
		} {
			r := timedPass(w, fmt.Sprintf("%s k=%d", m.name, k), queries, want, func(q []string, work map[string]float64) []rank.Result {
				got, es := rank.EvaluateTopK(ix, s, q, k, m.mode)
				work["bytes_decoded_per_query"] += float64(es.BytesDecoded)
				work["postings_per_query"] += float64(es.PostingsDecoded)
				return got
			})
			if m.mode == rank.PruneNone {
				exhaustiveQPS = r.Timings["qps"]
			}
			r.Ratios = map[string]float64{"speedup_vs_exhaustive": r.Timings["qps"] / exhaustiveQPS}
			rows = append(rows, r)
		}
	}

	// Block size changes what a skip decodes, never the ranking: the
	// block=128 AND rankings are the reference for all three rows.
	const andK = 10
	want := make([][]rank.Result, len(queries))
	for i, q := range queries {
		want[i], _ = rank.EvaluateAND(ix, s, q, andK)
	}
	for _, bs := range blockSizes {
		rows = append(rows, timedPass(w, fmt.Sprintf("and block=%d", bs), queries, want, func(q []string, work map[string]float64) []rank.Result {
			got, es := rank.EvaluateAND(byBlock[bs], s, q, andK)
			work["bytes_decoded_per_query"] += float64(es.BytesDecoded)
			work["postings_per_query"] += float64(es.PostingsDecoded)
			return got
		}))
	}
	return rows, nil
}
