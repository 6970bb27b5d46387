// Command dwrserve builds a complete distributed Web retrieval engine —
// synthetic Web, distributed crawl, partitioned index — and serves it
// over HTTP behind the full serving front-end: a bounded worker pool
// (the paper's G/G/c model), token-bucket admission control, a bounded
// deadline-evicting wait queue (FIFO per class, interactive dispatched
// before batch), adaptive latency-SLO load shedding (batch before
// interactive), and per-request deadlines propagated into the engine —
// the same queue server.Run steps in virtual time for BENCH_serve.
//
// Usage:
//
//	dwrserve                      # serve on :8080 with defaults
//	dwrserve -addr :9090 -c 150 -deadline 100 -shedtarget 50
//	dwrserve -live                # serve WHILE crawling and indexing
//	dwrserve -federate -sites 4   # serve a mediated federation of sites
//
// With -federate the corpus is split across sites by Web host and a
// query mediator runs collection selection on the serving path: each
// query is routed to the site subset whose collection statistics say it
// can answer, with full fan-out as the low-confidence fallback. The
// /stats Selection counters report sites contacted/skipped and sampled
// Recall@k against the exhaustive fan-out.
//
// With -live the index is not built up front: the server comes up over
// empty per-partition segment stores and a crawl streams pages into
// segment writers while queries are being answered. Sealed segments
// become searchable through atomic manifest swaps, segment merges run
// on a bounded background pool, and the broker result cache is
// invalidated by the stores' change hooks — crawling, merging, and
// serving proceed simultaneously.
//
// Endpoints:
//
//	GET /search?q=terms[&k=10][&class=batch]   ranked results (JSON)
//	GET /stats                                 front-end + engine counters
//	GET /healthz                               engine partition liveness
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"

	"dwr/internal/conc"
	"dwr/internal/core"
	"dwr/internal/crawler"
	"dwr/internal/qproc"
	"dwr/internal/rank"
	"dwr/internal/server"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// options is the parsed command line: the front-end settings every mode
// shares, then each mode's own.
type options struct {
	addr                  string
	c, queueCap           int
	deadline              float64
	admitRate, admitBurst float64
	shedTarget            float64
	shedWindow            int
	seed                  int64
	hosts, partitions     int
	workers, cacheCap     int
	segDocs, mergeWorkers int // -live
	sites, sampleEvery    int // -federate
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	flag.IntVar(&o.c, "c", 150, "worker pool width (the G/G/c 'c'; the paper's 150-thread Apache configuration)")
	flag.IntVar(&o.queueCap, "queuecap", 0, "wait queue bound across classes (0 = 2x workers, -1 = no queue)")
	flag.Float64Var(&o.deadline, "deadline", 0, "per-request deadline in ms, propagated into the engine (0 = none)")
	flag.Float64Var(&o.admitRate, "admitrate", 0, "token-bucket sustained admissions per second (0 = off)")
	flag.Float64Var(&o.admitBurst, "admitburst", 0, "token-bucket burst (0 = worker count)")
	flag.Float64Var(&o.shedTarget, "shedtarget", 0, "adaptive shedder p99 latency SLO in ms (0 = off)")
	flag.IntVar(&o.shedWindow, "shedwindow", 0, "completions per shed control period (0 = 200)")
	flag.Int64Var(&o.seed, "seed", 1, "build + admission seed")
	flag.IntVar(&o.hosts, "hosts", 80, "hosts in the synthetic web")
	flag.IntVar(&o.partitions, "partitions", 4, "query processors")
	flag.IntVar(&o.workers, "workers", 0, "engine scatter-gather fan-out (0 = GOMAXPROCS); distinct from -c, the front-end pool")
	flag.IntVar(&o.cacheCap, "cachecap", 0, "broker result-cache capacity in entries (0 = off)")
	live := flag.Bool("live", false, "serve while crawling: stream crawled pages into per-partition segment writers and answer queries over atomically swapped segment manifests, with merges on a background pool")
	flag.IntVar(&o.segDocs, "segdocs", 128, "documents per sealed segment for -live")
	flag.IntVar(&o.mergeWorkers, "mergeworkers", 2, "background merge pool width for -live")
	federate := flag.Bool("federate", false, "serve as a federation of sites with mediated collection selection: documents are split across -sites by Web host, and a query mediator decides per query which sites to contact (full fan-out on low confidence)")
	flag.IntVar(&o.sites, "sites", 4, "federation sites for -federate")
	flag.IntVar(&o.sampleEvery, "sampleevery", 16, "sample Recall@k of every Nth mediated answer against the exhaustive fan-out for -federate (0 = off)")
	flag.Parse()

	var h http.Handler
	var err error
	mode := "static"
	switch {
	case *federate:
		mode = "federated"
		h, _, err = newFederate(o)
	case *live:
		mode = "live"
		var crawl func() (fetched, indexed int)
		if h, crawl, err = newLive(o); err == nil {
			go func() {
				fetched, indexed := crawl()
				fmt.Printf("dwrserve: crawl finished — %d pages fetched, %d docs searchable\n", fetched, indexed)
			}()
		}
	default:
		h, _, err = newStatic(o)
	}
	if err == nil {
		fmt.Printf("dwrserve: serving (%s) on %s (c=%d workers)\n", mode, o.addr, o.c)
		err = http.ListenAndServe(o.addr, h)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwrserve: %v\n", err)
		os.Exit(1)
	}
}

// frontend puts the serving pipeline the flags describe in front of eng.
func frontend(eng qproc.Engine, resolve func(doc int) string, o options) http.Handler {
	f := server.NewFrontend(eng, server.Config{
		Workers:    o.c,
		QueueCap:   o.queueCap,
		DeadlineMs: o.deadline,
		AdmitRate:  o.admitRate,
		AdmitBurst: o.admitBurst,
		Shed:       server.ShedConfig{TargetP99Ms: o.shedTarget, Window: o.shedWindow},
		Seed:       o.seed,
	})
	f.Tokenize = textproc.Tokenize
	f.Resolve = resolve
	return f.Handler()
}

// corpusConfig is the corpus the flags name: one synthetic Web and one
// crawl of it, whichever mode serves it.
func corpusConfig(o options) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = o.seed
	cfg.Web.Seed = o.seed
	cfg.Web.Hosts = o.hosts
	cfg.Partitions = o.partitions
	cfg.Workers = o.workers
	return cfg
}

// prunedConfig is corpusConfig for the modes that index up front, and
// makes MaxScore pruning with threshold sharing the default of every
// engine static and -federate construct from here on — rank-identical
// to exhaustive evaluation, and the configuration bench/ and
// docs/BENCH_pruning.json measure. (-live stays at the engine defaults,
// which is what bench/'s live_ingest measures.)
func prunedConfig(o options) core.Config {
	qproc.SetDefaultOptions(qproc.WithWorkers(o.workers),
		qproc.WithPruning(rank.PruneMaxScore), qproc.WithThresholdSharing(true))
	fmt.Printf("dwrserve: building corpus (%d hosts, %d partitions)...\n", o.hosts, o.partitions)
	return corpusConfig(o)
}

// newStatic builds the whole index up front and returns the HTTP
// handler over its document-partitioned engine, plus the built system.
func newStatic(o options) (http.Handler, *core.Engine, error) {
	cfg := prunedConfig(o)
	cfg.Cache = core.CacheConfig{Capacity: o.cacheCap}
	eng, err := core.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("dwrserve: %d documents indexed across %d partitions\n", len(eng.Docs), eng.Query.K())
	return frontend(eng.Query, eng.URLOf, o), eng, nil
}

// newLive brings the front-end up over an empty core.Live and returns
// its HTTP handler plus the crawl that fills it while queries are
// served: the continuous crawl-index-serve pipeline. crawl runs to
// completion — streaming every page into the segment writers, sealing
// the final partial segments, and waiting out the background merges —
// and reports pages fetched and documents indexed. It is the single
// writer; queries read immutable manifest snapshots, so they never
// block on ingest or on the background merges.
func newLive(o options) (h http.Handler, crawl func() (fetched, indexed int), err error) {
	opts := []qproc.Option{qproc.WithWorkers(o.workers)}
	if o.cacheCap > 0 {
		opts = append(opts, qproc.WithResultCache(qproc.ResultCacheConfig{Capacity: o.cacheCap}))
	}
	live, err := core.NewLive(o.partitions, o.segDocs, conc.NewPool(o.mergeWorkers), opts...)
	if err != nil {
		return nil, nil, err
	}
	cfg := corpusConfig(o)
	web := simweb.New(cfg.Web)

	crawl = func() (fetched, indexed int) {
		cr := crawler.New(web, cfg.Crawl)
		cr.SeedFrontPages()
		cr.OnPage(func(p *crawler.Page) {
			if _, ok := live.Ingest(p); ok {
				indexed++
			}
		})
		st := cr.Run()
		if err := live.Seal(); err != nil {
			fmt.Fprintf(os.Stderr, "dwrserve: sealing final segment: %v\n", err)
		}
		return st.DistinctPages, indexed
	}

	return frontend(live.Query, web.URL, o), crawl, nil
}
