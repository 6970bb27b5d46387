package qproc

import (
	"testing"

	"dwr/internal/index"
	"dwr/internal/partition"
)

// Wall-clock benchmarks of the scatter-gather broker: the serial
// (workers=1) and parallel (workers=GOMAXPROCS) paths produce identical
// answers — see TestParallelBrokerMatchesSerial — so these measure pure
// execution-strategy cost. On a single core the parallel path should be
// within noise of serial (the worker pool runs inline below 2 workers of
// real parallelism); on a multi-core runner it approaches min(K, cores)×.

func benchEngine(b *testing.B, parts int, options ...Option) (*DocEngine, [][]string) {
	b.Helper()
	docs := corpus(31, 2000, 1000)
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	e, err := NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, parts), options...)
	if err != nil {
		b.Fatal(err)
	}
	return e, zipfQueries(32, 50, 1000)
}

func benchBrokerWorkers(b *testing.B, workers int, mode StatsMode) {
	e, queries := benchEngine(b, 8, WithWorkers(workers))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			e.Query(q, DocQueryOptions{K: 10, Stats: mode})
		}
	}
}

func BenchmarkBrokerSerial(b *testing.B)   { benchBrokerWorkers(b, 1, GlobalPrecomputed) }
func BenchmarkBrokerParallel(b *testing.B) { benchBrokerWorkers(b, 0, GlobalPrecomputed) }

func BenchmarkBrokerTwoRoundSerial(b *testing.B)   { benchBrokerWorkers(b, 1, GlobalTwoRound) }
func BenchmarkBrokerTwoRoundParallel(b *testing.B) { benchBrokerWorkers(b, 0, GlobalTwoRound) }

func benchTermEngineWorkers(b *testing.B, workers int) {
	docs := corpus(35, 1200, 600)
	central := centralIndex(docs)
	tp := partition.BinPackTerms(central.Terms(), func(t string) float64 {
		return float64(central.DF(t))
	}, 8)
	e, err := NewTermEngine(index.DefaultOptions(), docs, tp, WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	queries := zipfQueries(36, 50, 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			e.Query(q, 10)
		}
	}
}

func BenchmarkTermPipelineSerial(b *testing.B)   { benchTermEngineWorkers(b, 1) }
func BenchmarkTermPipelineParallel(b *testing.B) { benchTermEngineWorkers(b, 0) }

func benchConstruction(b *testing.B, workers int) {
	docs := corpus(37, 2000, 800)
	ids := make([]int, len(docs))
	for i, d := range docs {
		ids[i] = d.Ext
	}
	dp := partition.RoundRobinDocs(ids, 8)
	SetDefaultOptions(WithWorkers(workers))
	defer SetDefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewDocEngine(index.DefaultOptions(), docs, dp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineConstructionSerial(b *testing.B)   { benchConstruction(b, 1) }
func BenchmarkEngineConstructionParallel(b *testing.B) { benchConstruction(b, 0) }

// Cache-hierarchy benchmarks. The acceptance pair is
// BenchmarkResultCacheHitZipf vs BenchmarkResultCacheColdZipf: the same
// Zipfian stream against the same engine, warmed broker cache vs no
// cache — the hit path must be at least ~5× faster per stream pass.

func benchResultCache(b *testing.B, cached bool) {
	var opts []Option
	if cached {
		opts = append(opts, WithResultCache(ResultCacheConfig{Capacity: 4096, Shards: 8, Policy: CacheLFU}))
	}
	e, queries := benchEngine(b, 8, opts...)
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed}
	if cached {
		for _, q := range queries { // warm: every distinct query cached
			e.Query(q, opt)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			e.Query(q, opt)
		}
	}
	b.StopTimer()
	if cached {
		b.ReportMetric(e.ResultCache().Stats().HitRatio(), "hit-ratio")
	}
}

func BenchmarkResultCacheHitZipf(b *testing.B)  { benchResultCache(b, true) }
func BenchmarkResultCacheColdZipf(b *testing.B) { benchResultCache(b, false) }

// benchCachePolicy replays a long Zipf stream (many distinct queries,
// small cache) and reports the achieved hit ratio — run LRU and SDC
// side by side to reproduce the Fagni et al. ordering at the broker.
func benchCachePolicy(b *testing.B, policy CachePolicy) {
	stream := zipfQueries(33, 3000, 1000)
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed}
	var static []string
	if policy == CacheSDC {
		counts := make(map[string]int)
		for _, q := range stream[:1000] {
			counts[DocCacheKey(q, opt)]++
		}
		for k, c := range counts {
			if c >= 3 { // popularity head of the sample
				static = append(static, k)
			}
		}
		if len(static) > 64 {
			static = static[:64]
		}
	}
	e, _ := benchEngine(b, 8, WithResultCache(ResultCacheConfig{
		Capacity: 128, Shards: 8, Policy: policy, StaticKeys: static}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Each iteration replays the identical stream against a
		// generation-fresh cache, so the cumulative hit ratio equals the
		// per-iteration one.
		e.ResultCache().Invalidate()
		for _, q := range stream {
			e.Query(q, opt)
		}
	}
	b.ReportMetric(e.ResultCache().Stats().HitRatio(), "hit-ratio")
}

func BenchmarkResultCacheLRUHitRatio(b *testing.B) { benchCachePolicy(b, CacheLRU) }
func BenchmarkResultCacheSDCHitRatio(b *testing.B) { benchCachePolicy(b, CacheSDC) }
