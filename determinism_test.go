package dwr

import (
	"fmt"
	"reflect"
	"testing"

	"dwr/internal/core"
	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
)

// TestEndToEndDeterminism is the regression test behind dwrlint's
// determinism analyzer: it runs the same end-to-end scenario — corpus
// synthesis, partitioning, index construction, a Zipf query log, and a
// fault-injected robust query path — twice from one seed and requires
// byte-identical per-query results plus identical fault accounting.
// Any wall-clock or global-RNG leak into a deterministic package shows
// up here as a diff between the two replays.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() ([]string, metrics.FaultCounters) {
		cfg := core.DefaultConfig()
		cfg.Web.Hosts = 40
		base, err := core.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		lcfg := querylog.DefaultConfig()
		lcfg.Seed = cfg.Seed + 5
		lcfg.Total = 500
		lcfg.Distinct = 120
		lg := querylog.Generate(base.Web, lcfg)

		faults := core.FaultConfig{Seed: cfg.Seed + 9, FlakyP: 0.10, SlowP: 0.20, SlowMeanMs: 15}
		eng, err := qproc.NewDocEngine(cfg.Index, base.Docs, base.Partition,
			qproc.WithWorkers(0),
			qproc.WithInjector(faults.Injector()),
			qproc.WithFaultPolicy(qproc.DefaultFaultPolicy()))
		if err != nil {
			t.Fatal(err)
		}

		results := make([]string, len(lg.Queries))
		for i, q := range lg.Queries {
			results[i] = fmt.Sprintf("%+v", eng.QueryTopK(q.Terms, 10))
		}
		return results, eng.Stats().Faults
	}

	first, firstFaults := run()
	second, secondFaults := run()

	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("query %d diverged between identically seeded runs:\nfirst:  %s\nsecond: %s",
				i, first[i], second[i])
		}
	}
	if !reflect.DeepEqual(firstFaults, secondFaults) {
		t.Fatalf("fault counters diverged between identically seeded runs:\nfirst:  %+v\nsecond: %+v",
			firstFaults, secondFaults)
	}
	if firstFaults.FaultsSeen == 0 {
		t.Fatal("fault injector never engaged; the scenario is not exercising the robust path")
	}
}

// TestStreamingPipelineDeterminism is the continuous-indexing analogue
// of TestEndToEndDeterminism: a crawl streams pages through OnPage into
// a core.Live (per-partition segment writers, merges inline) whose
// engine answers queries interleaved with the ingest (one query per 20
// pages, mid-stream, so answers depend on exactly which manifests had
// been swapped in when).
// Two identically seeded replays must serve byte-identical answers and
// identical segment-maintenance counters.
func TestStreamingPipelineDeterminism(t *testing.T) {
	const parts = 3
	run := func() ([]string, []index.SegmentStats) {
		wcfg := simweb.DefaultConfig()
		wcfg.Hosts = 40
		web := simweb.New(wcfg)
		lcfg := querylog.DefaultConfig()
		lcfg.Seed = wcfg.Seed + 5
		lcfg.Total = 200
		lcfg.Distinct = 60
		lg := querylog.Generate(web, lcfg)

		live, err := core.NewLive(parts, 24, nil,
			qproc.WithResultCache(qproc.ResultCacheConfig{Capacity: 64}))
		if err != nil {
			t.Fatal(err)
		}
		eng := live.Query

		var answers []string
		pages, qi := 0, 0
		c := crawler.New(web, crawler.DefaultConfig())
		c.SeedFrontPages()
		c.OnPage(func(p *crawler.Page) {
			if _, ok := live.Ingest(p); !ok {
				return // no text, or a refetch
			}
			pages++
			if pages%20 == 0 {
				q := lg.Queries[qi%len(lg.Queries)]
				answers = append(answers, fmt.Sprintf("%+v", eng.Query(q.Terms, 10)))
				qi++
			}
		})
		c.Run()
		if err := live.Seal(); err != nil {
			t.Fatal(err)
		}
		for _, q := range lg.Queries[:50] {
			answers = append(answers, fmt.Sprintf("%+v", eng.Query(q.Terms, 10)))
		}
		stats := make([]index.SegmentStats, parts)
		for i, s := range live.Stores() {
			stats[i] = s.Stats()
		}
		return answers, stats
	}

	first, firstStats := run()
	second, secondStats := run()
	if len(first) != len(second) {
		t.Fatalf("replays served different query counts: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("streamed answer %d diverged between identically seeded runs:\nfirst:  %s\nsecond: %s",
				i, first[i], second[i])
		}
	}
	if !reflect.DeepEqual(firstStats, secondStats) {
		t.Fatalf("segment maintenance diverged between identically seeded runs:\nfirst:  %+v\nsecond: %+v",
			firstStats, secondStats)
	}
	if firstStats[0].Merges == 0 {
		t.Fatal("no merges ran; the scenario is not exercising the cascade")
	}
}
