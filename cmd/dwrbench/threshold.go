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
// maxscore row — single-wave MaxScore — is the baseline the maxscore+ts
// row, every engine's default and the configuration bench/ serves, is
// judged against; the comparator rows name their options.
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
		{"exhaustive", []qproc.Option{qproc.WithPruning(rank.PruneNone), qproc.WithThresholdSharing(false)}},
		{"maxscore", []qproc.Option{qproc.WithPruning(rank.PruneMaxScore), qproc.WithThresholdSharing(false)}},
		{"maxscore+ts", nil},
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
		evals := make([]evalFunc, len(modes))
		for mi, m := range modes {
			evals[mi] = func(q []string, work map[string]float64) []rank.Result {
				qr := engines[mi].Query(q, opt)
				work["bytes_decoded_per_query"] += float64(qr.PostingBytesDecoded)
				work["postings_per_query"] += float64(qr.PostingsDecoded)
				work["contacted_per_query"] += float64(qr.ServersContacted)
				work["skipped_per_query"] += float64(qr.PartitionsSkipped)
				work["waves_per_query"] += float64(qr.Waves)
				return qr.Results
			}
			rows = append(rows, timedPass(w, fmt.Sprintf("%s k=%d", m.name, k), queries, want, evals[mi]))
		}
		base := rows[first+1] // modes[1], single-wave maxscore
		for mi := range modes {
			r := &rows[first+mi]
			r.Counters["bytes_vs_maxscore"] = r.Counters["bytes_decoded_per_query"] / base.Counters["bytes_decoded_per_query"]
			speedup := 1.0
			if mi != 1 {
				speedup = medianSpeedup(queries, evals[1], evals[mi])
			}
			r.Ratios = map[string]float64{"speedup_vs_maxscore": speedup}
		}
	}
	return rows, nil
}
