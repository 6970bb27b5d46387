// cache_warming replays a Zipfian query log through the broker result
// cache — one eight-shard LRU in front of all partition fan-out — and
// prints how its hit ratio climbs as the cache warms from cold, at three
// capacities. Midway, a query processor fails for one window and then
// recovers: each topology change invalidates every entry at once (one
// generation bump, no walk), the outage's degraded answers are never
// cached, and the cache warms again from the recovered index.
//
//	go run ./examples/cache_warming
package main

import (
	"fmt"
	"log"

	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
)

func main() {
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 100
	web := simweb.New(wcfg)
	docs := core.WebDocs(web)

	lcfg := querylog.DefaultConfig()
	lcfg.Total = 12000
	lcfg.Distinct = 1500
	stream := querylog.Generate(web, lcfg).Queries
	const window, outage = 2000, 3 // partition 0 is down during window 3
	fmt.Printf("corpus: %d documents; stream: %d queries in windows of %d\n\n",
		len(docs), len(stream), window)

	capacities := []int{64, 256, 1024}
	ratios := make([][]string, len(stream)/window)
	opts := qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed}
	for _, capacity := range capacities {
		eng, err := qproc.NewDocEngine(index.DefaultOptions(), docs,
			partition.RoundRobinDocs(index.DocIDs(docs), 4),
			qproc.WithResultCache(qproc.ResultCacheConfig{Capacity: capacity}))
		if err != nil {
			log.Fatal(err)
		}
		var prev qproc.CacheStats
		for w := range ratios {
			if w == outage || w == outage+1 {
				eng.SetDown(0, w == outage)
			}
			for _, q := range stream[w*window : (w+1)*window] {
				eng.Query(q.Terms, opts)
			}
			st := eng.ResultCache().Stats()
			delta := qproc.CacheStats{Hits: st.Hits - prev.Hits, Misses: st.Misses - prev.Misses}
			ratios[w] = append(ratios[w], metrics.FormatPercent(delta.HitRatio()))
			prev = st
		}
	}

	cols := []string{"queries"}
	for _, c := range capacities {
		cols = append(cols, fmt.Sprintf("%d entries", c))
	}
	tbl := metrics.NewTable("result-cache hit ratio per window of the same stream", cols...)
	for w, row := range ratios {
		label := fmt.Sprintf("%d-%d", w*window+1, (w+1)*window)
		if w == outage {
			label += " (partition 0 down)"
		}
		cells := []any{label}
		for _, r := range row {
			cells = append(cells, r)
		}
		tbl.AddRow(cells...)
	}
	fmt.Println(tbl.String())
	fmt.Println("Every topology change drops the whole cache in O(1); degraded answers")
	fmt.Println("are never stored, so the outage window serves nothing from cache.")
}
