// cache_warming replays a Zipfian query log through the broker result
// cache under three replacement policies — LRU, LFU, and SDC (static +
// dynamic cache, Fagni et al.) — and prints their hit ratios side by
// side. SDC freezes the most popular queries of a historical log sample
// into a static half that eviction can never touch, which is exactly
// the property that wins on heavy-tailed streams: the head of the
// distribution stops competing with the tail for cache slots.
//
//	go run ./examples/cache_warming
package main

import (
	"fmt"
	"log"
	"strings"

	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
)

func main() {
	// Corpus and query log: the first warmN instances are "yesterday's
	// log" (the sample SDC mines for its static set), the rest are the
	// live stream every policy is measured on.
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 100
	web := simweb.New(wcfg)
	docs := core.WebDocs(web)

	lcfg := querylog.DefaultConfig()
	lcfg.Total = 12000
	lcfg.Distinct = 1500
	lg := querylog.Generate(web, lcfg)
	const warmN = 4000
	warm, stream := lg.Queries[:warmN], lg.Queries[warmN:]
	fmt.Printf("corpus: %d documents; warming sample: %d queries; live stream: %d queries\n\n",
		len(docs), len(warm), len(stream))

	ids := index.DocIDs(docs)
	const parts = 4
	// warmEng is a cache-less engine used only to compute the answers
	// SDC pins into its static half; the measured engines are built
	// per policy below with their cache attached at construction.
	warmEng, err := qproc.NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, parts))
	if err != nil {
		log.Fatal(err)
	}
	opts := qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed}

	// SDC's static set: the most popular keys of the warming sample,
	// translated to the exact cache keys the engine will look up.
	warmLog := &querylog.Log{Queries: warm}
	const capacity = 192
	var static []string
	for _, key := range warmLog.TopKeys(capacity / 2) {
		static = append(static, qproc.DocCacheKey(strings.Fields(key), opts))
	}

	configs := []struct {
		name string
		cfg  qproc.ResultCacheConfig
	}{
		{"LRU", qproc.ResultCacheConfig{Capacity: capacity, Policy: qproc.CacheLRU}},
		{"LFU", qproc.ResultCacheConfig{Capacity: capacity, Policy: qproc.CacheLFU}},
		{"SDC", qproc.ResultCacheConfig{Capacity: capacity, Policy: qproc.CacheSDC, StaticKeys: static}},
	}

	tbl := metrics.NewTable(fmt.Sprintf("result-cache hit ratio, %d entries, same %d-query stream", capacity, len(stream)),
		"policy", "hits", "misses", "hit ratio")
	for _, c := range configs {
		rc := qproc.NewResultCache(c.cfg)
		if c.cfg.Policy == qproc.CacheSDC {
			// Warming: answer the static queries on the cache-less
			// engine (so the measured stream starts with clean counters)
			// and pin their results into the frozen half before the
			// stream arrives.
			for _, key := range warmLog.TopKeys(capacity / 2) {
				terms := strings.Fields(key)
				rc.Put(qproc.DocCacheKey(terms, opts), warmEng.Query(terms, opts))
			}
		}
		// The measured engine gets the prebuilt (possibly pre-warmed)
		// cache at construction.
		eng, err := qproc.NewDocEngine(index.DefaultOptions(), docs,
			partition.RoundRobinDocs(ids, parts), qproc.WithResultCacheInstance(rc))
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range stream {
			eng.Query(q.Terms, opts)
		}
		st := rc.Stats()
		tbl.AddRow(c.name, st.Hits, st.Misses, metrics.FormatPercent(st.HitRatio()))
	}
	fmt.Println(tbl.String())
	fmt.Println("SDC's static half is immune to eviction, so burst-popular tail queries")
	fmt.Println("cannot push the head of the Zipf distribution out of the cache.")
}
