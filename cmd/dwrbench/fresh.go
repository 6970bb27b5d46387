package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"reflect"
	"time"

	"dwr/internal/core"
	"dwr/internal/crawler"
	"dwr/internal/loadgen"
	"dwr/internal/metrics"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
)

// freshConfig sizes the continuous-indexing scenario.
type freshConfig struct {
	Seed    int64   `json:"seed"`
	Hosts   int     `json:"hosts"`
	Parts   int     `json:"parts"`
	SegDocs int     `json:"seg_docs"`
	RateQPS float64 `json:"rate_qps"` // query arrivals per virtual second during the crawl
}

var freshScenario = define("fresh",
	"continuous indexing: crawl + index + serve on one virtual clock; freshness lag, serving latency, two-replay identity",
	freshConfig{Seed: 42, Hosts: 100, Parts: 4, SegDocs: 32, RateQPS: 2.0}, measureFresh)

// measureFresh runs the crawl→index→serve pipeline end to end, twice.
// Everything but wall_ms runs on virtual time — the crawl order, the
// query schedule, segment seal points, and merge cascades — so freshness
// lag (the virtual seconds between a page's download and the atomic
// manifest swap that makes it searchable) and serving latency are
// counters, and the second replay must reproduce every answer and
// counter of the first.
func measureFresh(_ io.Writer, c freshConfig) ([]row, error) {
	if c.Hosts < 1 || c.Parts < 1 || c.SegDocs < 1 || c.RateQPS <= 0 {
		return nil, errors.New("hosts, parts, seg_docs and rate_qps must be positive")
	}
	t0 := time.Now()
	counters, fp1 := freshReplay(c)
	again, fp2 := freshReplay(c)
	wallMs := float64(time.Since(t0).Microseconds()) / 1000
	return []row{{
		Name:       "pipeline",
		Counters:   counters,
		Timings:    map[string]float64{"wall_ms": wallMs},
		Invariants: map[string]bool{"replay_identical": fp1 == fp2 && reflect.DeepEqual(counters, again)},
	}}, nil
}

// freshReplay runs one full crawl→index→serve pass and returns its
// counters and a fingerprint of every answer it served.
func freshReplay(o freshConfig) (map[string]float64, uint64) {
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = o.Hosts
	wcfg.Seed = o.Seed
	web := simweb.New(wcfg)
	lg := querylog.Generate(web, querylog.DefaultConfig())
	arrivals := loadgen.Open(lg, loadgen.OpenConfig{
		Seed: o.Seed, Rate: o.RateQPS, N: 20000, K: 10,
	}).Init()

	// Merges run inline: deterministic scheduling is what makes the
	// two-replay identity check meaningful (dwrserve -live is the
	// wall-clock mode with background merges).
	live, err := core.NewLive(o.Parts, o.SegDocs, nil, qproc.WithResultCache(qproc.ResultCacheConfig{
		Capacity: 512, Shards: 8,
	}))
	if err != nil {
		panic(err) // o.Parts > 0, checked by measureFresh
	}
	eng, stores := live.Query, live.Stores()

	type pendingDoc struct {
		ext, part int
		fetchedAt float64
	}
	var (
		served  int
		pending []pendingDoc
		lag     metrics.Sample
		serveMs metrics.Sample
		clock   float64
		ai      int // next arrival index
		fp      = fnv.New64a()
	)
	serveDue := func() {
		for ai < len(arrivals) && arrivals[ai].At <= clock {
			qr := eng.Query(arrivals[ai].Req.Terms, arrivals[ai].Req.K)
			serveMs.Add(qr.LatencyMs)
			served++
			fmt.Fprintf(fp, "%v|%v|", qr.FromCache, qr.LatencyMs)
			for _, r := range qr.Results {
				fmt.Fprintf(fp, "%d:%v ", r.Doc, r.Score)
			}
			ai++
		}
	}
	drainSearchable := func() {
		kept := pending[:0]
		for _, p := range pending {
			if stores[p.part].Manifest().Contains(p.ext) {
				lag.Add(clock - p.fetchedAt)
			} else {
				kept = append(kept, p)
			}
		}
		pending = kept
	}

	ccfg := crawler.DefaultConfig()
	ccfg.Seed = o.Seed
	c := crawler.New(web, ccfg)
	c.SeedFrontPages()
	c.OnPage(func(p *crawler.Page) {
		if p.FetchedAt > clock {
			clock = p.FetchedAt
		}
		serveDue()
		part, ok := live.Ingest(p)
		if !ok {
			return // no text, or a refetch of an already-indexed page
		}
		pending = append(pending, pendingDoc{ext: p.PageID, part: part, fetchedAt: clock})
		drainSearchable()
	})
	st := c.Run()
	if st.VirtualSeconds > clock {
		clock = st.VirtualSeconds
	}
	serveDue()

	// End of crawl: seal every partial buffer so the tail of the crawl
	// becomes searchable, then serve a settle-phase against the complete
	// index (the next 200 scheduled arrivals, clock following them).
	if err := live.Seal(); err != nil {
		panic(err)
	}
	drainSearchable()
	for tail := 0; tail < 200 && ai < len(arrivals); tail++ {
		clock = arrivals[ai].At
		serveDue()
	}

	m := map[string]float64{
		"pages_crawled":   float64(st.DistinctPages),
		"docs_indexed":    float64(eng.NumDocs()),
		"crawl_virtual_s": st.VirtualSeconds,
		"queries_served":  float64(served),
		"cache_hit_ratio": eng.Stats().ResultCache.HitRatio(),
		"fresh_p50_s":     lag.Quantile(0.5),
		"fresh_p99_s":     lag.Quantile(0.99),
		"fresh_max_s":     lag.Quantile(1),
		"serve_p50_ms":    serveMs.Quantile(0.5),
		"serve_p99_ms":    serveMs.Quantile(0.99),
	}
	for _, s := range stores {
		ss := s.Stats()
		m["segments_sealed"] += float64(ss.Applied)
		m["merges"] += float64(ss.Merges)
		m["merged_docs"] += float64(ss.MergedDocs)
		m["tombstones_dropped"] += float64(ss.TombstonesDropped)
		m["final_segments"] += float64(ss.Segments)
		m["manifest_swaps"] += float64(ss.Gen)
	}
	return m, fp.Sum64()
}
