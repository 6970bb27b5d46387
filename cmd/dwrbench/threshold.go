package main

import (
	"errors"
	"fmt"
	"io"

	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/rank"
)

// thresholdConfig sizes the distributed threshold-sharing comparison.
type thresholdConfig struct {
	Seed       int64 `json:"seed"`
	Docs       int   `json:"docs"`
	Queries    int   `json:"queries"`
	Partitions int   `json:"partitions"`
}

var thresholdScenario = define("threshold",
	"single-wave scatter vs threshold-sharing waves over MaxScore partitions: decode work, skips, waves, QPS, rank identity",
	thresholdConfig{Seed: 42, Docs: 24000, Queries: 200, Partitions: 8}, measureThreshold)

// measureThreshold runs the bound-ordered wave schedule against the
// classic single-wave scatter on a document-partitioned engine: the
// broker seeds each later wave with its running k-th score, so low-bound
// partitions start with a live threshold (deeper skipping) or are
// skipped outright when their score bound cannot be competitive. The
// maxscore row — single-wave MaxScore, the configuration bench/ serves —
// is the baseline the maxscore+ts row is judged against.
func measureThreshold(w io.Writer, c thresholdConfig) ([]row, error) {
	if c.Docs < 1 || c.Queries < 1 || c.Partitions < 1 {
		return nil, errors.New("docs, queries and partitions must be positive")
	}
	docs, queries := zipfWorkload(c.Seed, c.Docs, c.Queries)
	dp := partition.RoundRobinDocs(index.DocIDs(docs), c.Partitions)
	modes := []struct {
		name    string
		options []qproc.Option
	}{
		{"exhaustive", nil},
		{"maxscore", []qproc.Option{qproc.WithPruning(rank.PruneMaxScore)}},
		{"maxscore+ts", []qproc.Option{qproc.WithPruning(rank.PruneMaxScore), qproc.WithThresholdSharing(true)}},
	}
	engines := make([]*qproc.DocEngine, len(modes))
	for i, m := range modes {
		e, err := qproc.NewDocEngine(index.DefaultOptions(), docs, dp, m.options...)
		if err != nil {
			return nil, err
		}
		engines[i] = e
	}

	var rows []row
	for _, k := range []int{10, 100} {
		opt := qproc.DocQueryOptions{K: k, Stats: qproc.GlobalPrecomputed}
		want := make([][]rank.Result, len(queries))
		for i, q := range queries {
			want[i] = engines[0].Query(q, opt).Results
		}
		first := len(rows)
		for mi, m := range modes {
			rows = append(rows, timedPass(w, fmt.Sprintf("%s k=%d", m.name, k), queries, want, func(q []string, work map[string]float64) []rank.Result {
				qr := engines[mi].Query(q, opt)
				work["bytes_decoded_per_query"] += float64(qr.PostingBytesDecoded)
				work["postings_per_query"] += float64(qr.PostingsDecoded)
				work["contacted_per_query"] += float64(qr.ServersContacted)
				work["skipped_per_query"] += float64(qr.PartitionsSkipped)
				work["waves_per_query"] += float64(qr.Waves)
				return qr.Results
			}))
		}
		base := rows[first+1] // modes[1], single-wave maxscore
		for i := first; i < len(rows); i++ {
			r := &rows[i]
			r.Counters["bytes_vs_maxscore"] = r.Counters["bytes_decoded_per_query"] / base.Counters["bytes_decoded_per_query"]
			r.Ratios = map[string]float64{"speedup_vs_maxscore": r.Timings["qps"] / base.Timings["qps"]}
		}
	}
	return rows, nil
}
