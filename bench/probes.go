package main

import (
	"runtime"
	"strings"
	"time"

	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/textproc"
)

// probes times single layers in isolation on the inputs of the traced
// ops and adds what it finds to m. Each layer is called directly, with
// one goroutine, so a probe's number is the layer's own cost without
// HTTP, the broker or a second core; the rank and index probes need the
// static partitions and the cache probes a cached workload.
func (r *run) probes(ops []int32, m map[string]float64) {
	var queries []query
	for _, op := range ops {
		if op >= 0 {
			queries = append(queries, r.sc.pool[op])
		}
	}
	if len(queries) == 0 {
		return
	}
	nq := float64(len(queries))

	texts := make([]string, len(queries))
	for i, q := range queries {
		texts[i] = strings.Join(q.terms, " ")
	}
	t0 := time.Now()
	for _, s := range texts {
		sink += len(textproc.Tokenize(s))
	}
	m["textproc.tokenize_query_ns"] = float64(time.Since(t0)) / nq

	if r.w.cacheCap > 0 {
		r.cacheProbes(queries, m)
	}
	if r.sys.static != nil {
		r.rankProbes(ops, queries, m)
		r.indexProbes(queries, m)
	}
}

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink int

// cacheProbes replays the traced queries' cache keys against a fresh
// result cache of the workload's size: build the key, miss, fill, hit.
func (r *run) cacheProbes(queries []query, m map[string]float64) {
	// The options DocEngine.QueryTopK resolves for this engine.
	opt := qproc.DocQueryOptions{K: r.w.k, Stats: qproc.GlobalPrecomputed,
		Pruning: rank.PruneMaxScore, Threshold: qproc.ThresholdShared}
	nq := float64(len(queries))
	keys := make([]string, len(queries))
	t0 := time.Now()
	for i, q := range queries {
		keys[i] = qproc.DocCacheKey(q.terms, opt)
	}
	m["cache.key_ns"] = float64(time.Since(t0)) / nq

	rc := qproc.NewResultCache(qproc.ResultCacheConfig{Capacity: r.w.cacheCap})
	val := qproc.QueryResult{Results: make([]rank.Result, r.w.k)}
	// Get on the empty cache misses every time; after the Puts every key
	// is resident, so the second round of Gets hits every time.
	timeGets := func() float64 {
		t0 := time.Now()
		for _, k := range keys {
			if _, ok := rc.Get(k); ok {
				sink++
			}
		}
		return float64(time.Since(t0)) / nq
	}
	m["cache.get_miss_ns"] = timeGets()
	t0 = time.Now()
	for _, k := range keys {
		rc.Put(k, val)
	}
	m["cache.put_ns"] = float64(time.Since(t0)) / nq
	m["cache.get_hit_ns"] = timeGets()
}

// rankProbes calls the evaluator per partition as the broker's first
// wave does (unseeded MaxScore), and the exhaustive evaluator for the
// postings a query costs without pruning.
func (r *run) rankProbes(ops []int32, queries []query, m map[string]float64) {
	eng := r.sys.static.Query
	scorer := rank.NewScorer(rank.FromGlobal(eng.GlobalStats()))
	nq := float64(len(queries))

	postings := 0
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	for _, q := range queries {
		for p := 0; p < eng.K(); p++ {
			_, es := rank.EvaluateTopK(eng.PartIndex(p), scorer, q.terms, r.w.k, rank.PruneMaxScore)
			postings += es.PostingsDecoded
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&ms1)
	m["rank.eval_us"] = float64(d) / 1e3 / nq
	m["rank.eval_ns_per_posting"] = metrics.Ratio(float64(d), float64(postings))
	m["rank.allocs_per_eval"] = float64(ms1.Mallocs-ms0.Mallocs) / (nq * float64(eng.K()))
	m["qproc.self_us_est"] = m["qproc.query_us"] - m["rank.postings_per_query"]*m["rank.eval_ns_per_posting"]/1e3

	// Exhaustive postings depend only on the query: count each distinct
	// one once.
	memo := make(map[int32]int)
	exhaustive := 0
	for _, op := range ops {
		if op < 0 {
			continue
		}
		n, ok := memo[op]
		if !ok {
			for p := 0; p < eng.K(); p++ {
				_, es := rank.EvaluateOR(eng.PartIndex(p), scorer, r.sc.pool[op].terms, r.w.k)
				n += es.PostingsDecoded
			}
			memo[op] = n
		}
		exhaustive += n
	}
	m["rank.exhaustive_postings_per_query"] = float64(exhaustive) / nq
	// With the result cache on, hits decode nothing and the ratio falls
	// with the hit ratio; on the static workloads it is pruning alone.
	m["rank.prune_ratio"] = metrics.Ratio(m["rank.postings_per_query"], m["rank.exhaustive_postings_per_query"])
}

// indexProbes scans and skips through the posting lists of the traced
// queries' distinct terms, and rebuilds the partitions once.
func (r *run) indexProbes(queries []query, m map[string]float64) {
	ce := r.sys.static
	eng := ce.Query
	seen := make(map[string]bool)
	for _, q := range queries {
		for _, t := range q.terms {
			seen[t] = true
		}
	}
	// A fresh iterator per distinct term and partition.
	iterators := func() (its []*index.Iterator) {
		for t := range seen {
			for p := 0; p < eng.K(); p++ {
				if it := eng.PartIndex(p).Postings(t); it != nil {
					its = append(its, it)
				}
			}
		}
		return its
	}

	postings := 0
	all := iterators()
	t0 := time.Now()
	for _, it := range all {
		for it.Next() {
			postings++
		}
	}
	m["index.decode_ns_per_posting"] = metrics.Ratio(float64(time.Since(t0)), float64(postings))

	// Strided SkipTo: every 512th document, so most of the 128-posting
	// blocks in between are passed over undecoded.
	skips := 0
	all = iterators()
	t0 = time.Now()
	for _, it := range all {
		for doc := int32(0); it.SkipTo(doc); doc = it.Posting().Doc + 512 {
			skips++
		}
	}
	m["index.skip_ns"] = metrics.Ratio(float64(time.Since(t0)), float64(skips))

	var size int64
	for p := 0; p < eng.K(); p++ {
		size += eng.PartIndex(p).SizeBytes()
	}
	m["index.size_mb"] = float64(size) / (1 << 20)

	t0 = time.Now()
	if _, err := qproc.NewDocEngine(ce.Config.Index, ce.Docs, ce.Partition); err != nil {
		r.fail("index.build_s probe: %v", err)
	}
	m["index.build_s"] = time.Since(t0).Seconds()
}
