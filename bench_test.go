// Package dwr's repository-root benchmarks regenerate every table and
// figure of the paper (BenchmarkExperiments, one sub-benchmark per
// internal/experiments registry entry) and time the ablations DESIGN.md
// calls out.
// Run them all with:
//
//	go test -bench=. -benchmem
package dwr

import (
	"fmt"
	"testing"
	"time"

	"dwr/internal/cache"
	"dwr/internal/experiments"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/randx"
	"dwr/internal/rank"
)

// BenchmarkExperiments regenerates every registered paper artifact, one
// sub-benchmark per ID (-bench 'BenchmarkExperiments/C6$'), and records
// its headline values as benchmark metrics. It ranges over the registry,
// so an experiment cannot be registered and left untimed.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Registry() {
		b.Run(e.ID, func(b *testing.B) {
			var r *experiments.Result
			for i := 0; i < b.N; i++ {
				r = e.Run()
			}
			for k, v := range r.Values {
				b.ReportMetric(v, k)
			}
		})
	}
}

// ---- Ablation benchmarks (design choices called out in DESIGN.md) ----

// benchCorpus builds a fixed corpus for the micro-ablations.
func benchCorpus() []index.Doc {
	rng := randx.New(99)
	z := randx.NewZipf(3000, 1.0)
	docs := make([]index.Doc, 1500)
	for i := range docs {
		n := 40 + rng.Intn(160)
		terms := make([]string, n)
		for j := range terms {
			terms[j] = fmt.Sprintf("w%04d", z.Draw(rng))
		}
		docs[i] = index.Doc{Ext: i, Terms: terms}
	}
	return docs
}

func buildWith(docs []index.Doc, opts index.Options) *index.Index {
	b := index.NewBuilder(opts)
	for _, d := range docs {
		b.AddDocument(d.Ext, d.Terms)
	}
	return index.MustBuild(b)
}

// BenchmarkAblationCompression compares index build + size with and
// without varint/delta compression.
func BenchmarkAblationCompression(b *testing.B) {
	docs := benchCorpus()
	for _, c := range []struct {
		name     string
		compress bool
	}{{"compressed", true}, {"fixed32", false}} {
		b.Run(c.name, func(b *testing.B) {
			opts := index.DefaultOptions()
			opts.Compress = c.compress
			var ix *index.Index
			for i := 0; i < b.N; i++ {
				ix = buildWith(docs, opts)
			}
			b.ReportMetric(float64(ix.SizeBytes()), "index_bytes")
		})
	}
}

// BenchmarkAblationSkipLists compares conjunctive evaluation across
// posting-block sizes: small blocks skip tighter, large blocks decode in
// bigger bursts.
func BenchmarkAblationSkipLists(b *testing.B) {
	docs := benchCorpus()
	for _, c := range []struct {
		name      string
		blockSize int
	}{{"block32", 32}, {"block128", 128}, {"block512", 512}} {
		b.Run(c.name, func(b *testing.B) {
			opts := index.DefaultOptions()
			opts.BlockSize = c.blockSize
			ix := buildWith(docs, opts)
			s := rank.NewScorer(rank.FromIndex(ix))
			// A rare term ANDed with a frequent one: the skip-friendly case.
			q := []string{"w2900", "w0001"}
			b.ResetTimer()
			var decoded int
			for i := 0; i < b.N; i++ {
				_, es := rank.EvaluateAND(ix, s, q, 10)
				decoded = es.PostingsDecoded
			}
			b.ReportMetric(float64(decoded), "postings_decoded")
		})
	}
}

// BenchmarkAblationPruning compares the exhaustive top-k evaluator
// against MaxScore pruning at k=10 and k=100: queries per second,
// allocations, and encoded posting bytes decoded per query. The rankings
// are identical (pinned by the Equivalence tests); only the work differs.
func BenchmarkAblationPruning(b *testing.B) {
	docs := benchCorpus()
	ix := buildWith(docs, index.DefaultOptions())
	s := rank.NewScorer(rank.FromIndex(ix))
	rng := randx.New(7)
	z := randx.NewZipf(3000, 1.0)
	queries := make([][]string, 64)
	for i := range queries {
		q := make([]string, 2+rng.Intn(3))
		for j := range q {
			q[j] = fmt.Sprintf("w%04d", z.Draw(rng))
		}
		queries[i] = q
	}
	for _, k := range []int{10, 100} {
		for _, m := range []struct {
			name string
			mode rank.Pruning
		}{
			{"exhaustive", rank.PruneNone},
			{"maxscore", rank.PruneMaxScore},
		} {
			b.Run(fmt.Sprintf("%s/k%d", m.name, k), func(b *testing.B) {
				b.ReportAllocs()
				var bytesDecoded, postings int64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					_, es := rank.EvaluateTopK(ix, s, queries[i%len(queries)], k, m.mode)
					bytesDecoded += es.BytesDecoded
					postings += int64(es.PostingsDecoded)
				}
				b.ReportMetric(float64(bytesDecoded)/float64(b.N), "bytes_decoded/query")
				b.ReportMetric(float64(postings)/float64(b.N), "postings/query")
			})
		}
	}
}

// BenchmarkAblationQueryEval compares disjunctive vs conjunctive
// evaluation cost on the same queries.
func BenchmarkAblationQueryEval(b *testing.B) {
	docs := benchCorpus()
	ix := buildWith(docs, index.DefaultOptions())
	s := rank.NewScorer(rank.FromIndex(ix))
	queries := [][]string{
		{"w0001", "w0050"}, {"w0010", "w0200", "w1500"}, {"w0002"},
	}
	b.Run("or", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				rank.EvaluateOR(ix, s, q, 10)
			}
		}
	})
	b.Run("and", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, q := range queries {
				rank.EvaluateAND(ix, s, q, 10)
			}
		}
	})
}

// BenchmarkAblationCachePolicy compares the three cache policies on one
// Zipf stream.
func BenchmarkAblationCachePolicy(b *testing.B) {
	z := randx.NewZipf(5000, 1.0)
	staticKeys := make([]string, 100)
	for i := range staticKeys {
		staticKeys[i] = fmt.Sprintf("q%d", i)
	}
	mk := map[string]func() cache.Cache[int]{
		"lru": func() cache.Cache[int] { return cache.NewLRU[int](200) },
		"lfu": func() cache.Cache[int] { return cache.NewLFU[int](200) },
		"sdc": func() cache.Cache[int] { return cache.NewSDC[int](staticKeys, 100) },
	}
	for _, name := range []string{"lru", "lfu", "sdc"} {
		b.Run(name, func(b *testing.B) {
			var ratio float64
			for i := 0; i < b.N; i++ {
				rng := randx.New(7)
				c := mk[name]()
				for j := 0; j < 50000; j++ {
					key := fmt.Sprintf("q%d", z.Draw(rng))
					if _, ok := c.Get(key); !ok {
						c.Put(key, 1, float64(j))
					}
				}
				ratio = cache.HitRatio(c)
			}
			b.ReportMetric(ratio, "hit_ratio")
		})
	}
}

// BenchmarkIndexBuilders times the four construction strategies on the
// same corpus.
func BenchmarkIndexBuilders(b *testing.B) {
	docs := benchCorpus()
	opts := index.DefaultOptions()
	b.Run("inverter", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			buildWith(docs, opts)
		}
	})
	b.Run("sort", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sb := index.NewSortBuilder(opts)
			for _, d := range docs {
				sb.AddDocument(d.Ext, d.Terms)
			}
			index.MustBuild(sb)
		}
	})
	b.Run("spimi", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sp, err := index.NewSPIMIBuilder(opts, 1<<20, b.TempDir())
			if err != nil {
				b.Fatal(err)
			}
			for _, d := range docs {
				if err := sp.AddDocument(d.Ext, d.Terms); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := sp.Build(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mapreduce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := index.BuildMapReduce(opts, docs, 8, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("pipeline", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := index.BuildPipeline(opts, docs, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- Parallel scatter-gather benchmarks (wall-clock, not simulated) ----

// benchQueries draws a Zipf query stream over the benchCorpus vocabulary.
func benchQueries(n int) [][]string {
	rng := randx.New(17)
	z := randx.NewZipf(3000, 1.0)
	out := make([][]string, n)
	for i := range out {
		q := make([]string, 1+rng.Intn(3))
		for j := range q {
			q[j] = fmt.Sprintf("w%04d", z.Draw(rng))
		}
		out[i] = q
	}
	return out
}

func benchDocEngine(b *testing.B, docs []index.Doc, k int, options ...qproc.Option) *qproc.DocEngine {
	b.Helper()
	e, err := qproc.NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(index.DocIDs(docs), k), options...)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkParallelBroker times the same query replay through the serial
// broker (workers=1) and the parallel scatter-gather (workers=GOMAXPROCS)
// over 8 partitions. Results are identical by construction; only
// wall-clock differs. The "speedup" sub-benchmark times both inside one
// run and reports serial/parallel as a metric (≈1.0 on a single core,
// approaching min(8, cores) on a multi-core runner).
func BenchmarkParallelBroker(b *testing.B) {
	docs := benchCorpus()
	serialEng := benchDocEngine(b, docs, 8, qproc.WithWorkers(1))
	parEng := benchDocEngine(b, docs, 8, qproc.WithWorkers(0))
	queries := benchQueries(64)
	replay := func(e *qproc.DocEngine) {
		for _, q := range queries {
			e.Query(q, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalTwoRound})
		}
	}
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(serialEng)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			replay(parEng)
		}
	})
	b.Run("speedup", func(b *testing.B) {
		var serial, parallel time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			replay(serialEng)
			serial += time.Since(t0)
			t0 = time.Now()
			replay(parEng)
			parallel += time.Since(t0)
		}
		if parallel > 0 {
			b.ReportMetric(float64(serial)/float64(parallel), "speedup")
		}
	})
}

// BenchmarkParallelBuild times constructing the 8 partition indexes of a
// document-partitioned engine serially vs concurrently.
func BenchmarkParallelBuild(b *testing.B) {
	docs := benchCorpus()
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchDocEngine(b, docs, 8, qproc.WithWorkers(1))
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchDocEngine(b, docs, 8, qproc.WithWorkers(0))
		}
	})
	b.Run("speedup", func(b *testing.B) {
		var serial, parallel time.Duration
		for i := 0; i < b.N; i++ {
			t0 := time.Now()
			benchDocEngine(b, docs, 8, qproc.WithWorkers(1))
			serial += time.Since(t0)
			t0 = time.Now()
			benchDocEngine(b, docs, 8, qproc.WithWorkers(0))
			parallel += time.Since(t0)
		}
		if parallel > 0 {
			b.ReportMetric(float64(serial)/float64(parallel), "speedup")
		}
	})
}
