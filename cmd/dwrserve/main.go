// Command dwrserve builds a complete distributed Web retrieval engine —
// synthetic Web, distributed crawl, partitioned index — and serves it
// over HTTP behind the full serving front-end: a bounded worker pool
// (the paper's G/G/c model), token-bucket admission control, a bounded
// deadline-evicting wait queue (FIFO per class, interactive dispatched
// before batch), adaptive latency-SLO load shedding (batch before
// interactive), and a per-request deadline on the front-end's wall
// clock — the same queue server.Run steps in virtual time for BENCH_serve.
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
// become searchable through atomic manifest swaps, each seal runs the
// merge cascade it sets off, and the broker result cache is invalidated
// by the stores' change hooks — crawling, merging, and serving proceed
// simultaneously, and queries never wait on the writer.
//
// -c, -hosts, -partitions, -segdocs and -sites must be positive and
// -cachecap and -sampleevery not negative; anything else exits 2.
//
// Endpoints:
//
//	GET /search?q=terms[&k=10][&class=batch]   ranked results (JSON)
//	GET /stats                                 front-end + engine counters
//	GET /healthz                               engine partition liveness
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"

	"dwr/internal/core"
	"dwr/internal/crawler"
	"dwr/internal/qproc"
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
	cacheCap              int
	segDocs               int // -live
	sites, sampleEvery    int // -federate
}

func main() {
	o, mode, err := parseOptions(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}

	var h http.Handler
	switch mode {
	case "federated":
		h, _, err = newFederate(o)
	case "live":
		var crawl func() (fetched, indexed int)
		if h, _, crawl, err = newLive(o); err == nil {
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

// parseOptions parses the command line into the options and the mode
// ("static", "live" or "federated") they serve. A usage error — an
// unknown flag, a size below its floor, or a NaN, infinite or negative
// deadline, rate, burst or latency target — is reported on stderr and
// returned; main then exits 2.
func parseOptions(args []string, stderr io.Writer) (o options, mode string, err error) {
	fs := flag.NewFlagSet("dwrserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.addr, "addr", ":8080", "HTTP listen address")
	fs.IntVar(&o.c, "c", 150, "worker pool width (the G/G/c 'c'; the paper's 150-thread Apache configuration)")
	fs.IntVar(&o.queueCap, "queuecap", 0, "wait queue bound across classes (0 = 2x workers, -1 = no queue)")
	fs.Float64Var(&o.deadline, "deadline", 0, "per-request wall-clock budget in ms, arrival to verdict, judged by the front-end (0 = none)")
	fs.Float64Var(&o.admitRate, "admitrate", 0, "token-bucket sustained admissions per second (0 = off)")
	fs.Float64Var(&o.admitBurst, "admitburst", 0, "token-bucket burst (0 = worker count)")
	fs.Float64Var(&o.shedTarget, "shedtarget", 0, "adaptive shedder p99 latency SLO in ms (0 = off)")
	fs.IntVar(&o.shedWindow, "shedwindow", 0, "completions per shed control period (0 = 200)")
	fs.Int64Var(&o.seed, "seed", 1, "build + admission seed")
	fs.IntVar(&o.hosts, "hosts", 80, "hosts in the synthetic web")
	fs.IntVar(&o.partitions, "partitions", 4, "query processors")
	fs.IntVar(&o.cacheCap, "cachecap", 0, "broker result-cache capacity in entries (0 = off)")
	live := fs.Bool("live", false, "serve while crawling: stream crawled pages into per-partition segment writers and answer queries over atomically swapped segment manifests, merging segments as they seal")
	fs.IntVar(&o.segDocs, "segdocs", 128, "documents per sealed segment for -live")
	federate := fs.Bool("federate", false, "serve as a federation of sites with mediated collection selection: documents are split across -sites by Web host, and a query mediator decides per query which sites to contact (full fan-out on low confidence)")
	fs.IntVar(&o.sites, "sites", 4, "federation sites for -federate")
	fs.IntVar(&o.sampleEvery, "sampleevery", 16, "sample Recall@k of every Nth mediated answer against the exhaustive fan-out for -federate (0 = off)")
	if err := fs.Parse(args); err != nil {
		return o, "", err
	}
	// The engines would quietly substitute a default for some of these,
	// and divide by others.
	for _, c := range []struct {
		name   string
		v, min int
	}{
		{"c", o.c, 1}, {"hosts", o.hosts, 1}, {"partitions", o.partitions, 1}, {"cachecap", o.cacheCap, 0},
		{"segdocs", o.segDocs, 1}, {"sites", o.sites, 1}, {"sampleevery", o.sampleEvery, 0},
	} {
		if c.v < c.min {
			return o, "", usage(stderr, fmt.Errorf("-%s must be at least %d, got %d", c.name, c.min, c.v))
		}
	}
	// The front-end reads a negative value as "off", and a NaN token
	// bucket or shed level sheds every request from then on.
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"deadline", o.deadline}, {"admitrate", o.admitRate}, {"admitburst", o.admitBurst}, {"shedtarget", o.shedTarget},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return o, "", usage(stderr, fmt.Errorf("-%s must be a finite number at least 0, got %v", c.name, c.v))
		}
	}
	switch {
	case *federate:
		return o, "federated", nil
	case *live:
		return o, "live", nil
	}
	return o, "static", nil
}

// usage reports a flag value parseOptions refuses and returns it.
func usage(stderr io.Writer, err error) error {
	fmt.Fprintf(stderr, "dwrserve: %v\n", err)
	return err
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
	return cfg
}

// newStatic builds the whole index up front and returns the HTTP
// handler over its document-partitioned engine, plus the built system.
func newStatic(o options) (http.Handler, *core.Engine, error) {
	fmt.Printf("dwrserve: building corpus (%d hosts, %d partitions)...\n", o.hosts, o.partitions)
	cfg := corpusConfig(o)
	cfg.Cache = core.CacheConfig{Capacity: o.cacheCap}
	eng, err := core.Build(cfg)
	if err != nil {
		return nil, nil, err
	}
	fmt.Printf("dwrserve: %d documents indexed across %d partitions\n", len(eng.Docs), eng.Query.K())
	return frontend(eng.Query, eng.URLOf, o), eng, nil
}

// newLive brings the front-end up over an empty core.Live and returns
// its HTTP handler and the Live, plus the crawl that fills it while
// queries are served: the continuous crawl-index-serve pipeline. crawl
// runs to completion — streaming every page into the segment writers
// and sealing the final partial segments — and reports pages fetched
// and documents indexed. It is the single writer, merges included; queries
// read immutable manifest snapshots, so they never block on it.
func newLive(o options) (h http.Handler, live *core.Live, crawl func() (fetched, indexed int), err error) {
	live, err = core.NewLive(o.partitions, o.segDocs,
		qproc.WithResultCache(qproc.ResultCacheConfig{Capacity: o.cacheCap}))
	if err != nil {
		return nil, nil, nil, err
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

	return frontend(live.Query, web.URL, o), live, crawl, nil
}
