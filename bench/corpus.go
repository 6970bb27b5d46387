package main

import (
	"fmt"
	"net/url"
	"strings"
	"time"

	"dwr/internal/core"
	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// profile sizes one run. The full profile is what BENCHMARK.json
// measures; the quick profile keeps `go test` in seconds.
type profile struct {
	hosts     int // synthetic web size; 4 round-robin partitions
	liveHosts int // web size of live_ingest, whose engine costs more per document
	docs      int // pinned: indexable documents core.Build yields from hosts
	pool      int // distinct queries
	liveDocs  int // pinned: distinct pages the live crawl collects
	preIngest int // pages ingested during live set-up
	setups    int // timed set-ups per run; setup_s is their median
	traceOps  int // ops of the traced pass
	// opsPerSec pins each workload's script length per --seconds second,
	// so that one pass takes about --seconds at this commit on the
	// 2-core sizing box. A fixed script means every run of a seed does
	// identical work: percentiles are over identical samples and the
	// counters of the traced pass repeat exactly.
	opsPerSec map[string]int
}

var fullProfile = profile{
	hosts: 3000, docs: 16836, pool: 5000,
	liveHosts: 2000, liveDocs: 10687, preIngest: 4000,
	setups: 3, traceOps: 3000,
	opsPerSec: map[string]int{
		"static_top10": 6500, "static_top100": 2400,
		"cached_hot": 40000, "live_ingest": 2400,
	},
}

var quickProfile = profile{
	hosts: 350, docs: 0, pool: 400,
	liveHosts: 350, liveDocs: 0, preIngest: 600,
	setups: 1, traceOps: 500,
	opsPerSec: map[string]int{
		"static_top10": 2000, "static_top100": 2000,
		"cached_hot": 2000, "live_ingest": 2000,
	},
}

// workload is one traffic mix. Names are the BENCHMARK.json contract.
type workload struct {
	name     string
	k        int
	cacheCap int  // broker result-cache entries (0 = off)
	live     bool // LiveEngine over segment stores, 1 ingest : 4 queries
}

var workloads = []workload{
	{name: "static_top10", k: 10},
	{name: "static_top100", k: 100},
	{name: "cached_hot", k: 10, cacheCap: 8192},
	{name: "live_ingest", k: 10, live: true},
}

const (
	partitions   = 4
	segDocs      = 128 // dwrserve -live default
	ingestPerOps = 5   // every 5th live op is an ingest
	// corpusSeed pins the synthetic web, crawl, partitioning and query
	// pool; -seed never reaches them, so the pinned document counts hold.
	corpusSeed = 1
)

func webConfig(hosts int) simweb.Config {
	c := core.DefaultConfig().Web
	c.Seed = corpusSeed
	c.Hosts = hosts
	c.MaxPages = 400
	c.VocabSize = 3000
	c.Languages = []string{"en"}
	return c
}

// system is a query-ready engine plus what the harness needs around it.
type system struct {
	eng     qproc.Engine
	resolve func(int) string
	web     *simweb.Web
	static  *core.Engine // nil for live_ingest
	live    *liveState   // nil for the static workloads
	crawlS  float64      // live only: wall time of the crawl inside set-up
}

// liveState is the write side of live_ingest: the crawled pages and the
// per-partition writers the ingest ops feed.
type liveState struct {
	pages   []*crawler.Page // crawl order; [0,preIngest) are indexed by set-up
	stores  []*index.SegmentStore
	writers []*index.SegmentWriter
	eng     *qproc.LiveEngine
	added   int // documents accepted by the writers
}

// setup builds the system a workload serves from, through the same
// constructors cmd/dwrserve uses. Its wall time is setup_s.
func setup(w workload, p profile) (*system, error) {
	if w.live {
		return setupLive(p)
	}
	qproc.SetDefaultOptions(qproc.WithPruning(rank.PruneMaxScore), qproc.WithThresholdSharing(true))
	cfg := core.DefaultConfig()
	cfg.Seed = corpusSeed
	cfg.Web = webConfig(p.hosts)
	cfg.Partitions = partitions
	cfg.Cache = core.CacheConfig{Capacity: w.cacheCap}
	eng, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	if p.docs > 0 && len(eng.Docs) != p.docs {
		return nil, fmt.Errorf("corpus has %d documents, BENCHMARK pins %d", len(eng.Docs), p.docs)
	}
	return &system{eng: eng.Query, resolve: eng.URLOf, web: eng.Web, static: eng}, nil
}

// setupLive is `dwrserve -live` without the background merge pool and
// the result cache: merges run inline in the ingesting goroutine, so
// manifest swaps happen at fixed points of the op script.
func setupLive(p profile) (*system, error) {
	qproc.SetDefaultOptions()
	web := simweb.New(webConfig(p.liveHosts))
	ls := &liveState{}
	for i := 0; i < partitions; i++ {
		st := index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		ls.stores = append(ls.stores, st)
		ls.writers = append(ls.writers, index.NewSegmentWriter(st, segDocs))
	}
	eng, err := qproc.NewLiveEngine(ls.stores)
	if err != nil {
		return nil, err
	}
	ls.eng = eng

	t0 := time.Now()
	ccfg := crawler.DefaultConfig()
	ccfg.Seed = corpusSeed
	cr := crawler.New(web, ccfg)
	var seeds []string
	for _, h := range web.Hosts {
		if len(h.Pages) > 0 {
			seeds = append(seeds, web.URL(h.Pages[0]))
		}
	}
	cr.Seed(seeds)
	seen := make(map[int]bool)
	cr.OnPage(func(pg *crawler.Page) {
		if !seen[pg.PageID] { // refetches after an agent failure repeat pages
			seen[pg.PageID] = true
			ls.pages = append(ls.pages, pg)
		}
	})
	cr.Run()
	crawlS := time.Since(t0).Seconds()
	if p.liveDocs > 0 && len(ls.pages) != p.liveDocs {
		return nil, fmt.Errorf("live crawl collected %d pages, BENCHMARK pins %d", len(ls.pages), p.liveDocs)
	}
	if len(ls.pages) <= p.preIngest {
		return nil, fmt.Errorf("live crawl collected %d pages, need more than %d", len(ls.pages), p.preIngest)
	}
	for _, pg := range ls.pages[:p.preIngest] {
		ls.ingest(pg, nil)
	}
	return &system{eng: eng, resolve: web.URL, web: web, live: ls, crawlS: crawlS}, nil
}

// ingest is the body of dwrserve's runLive page hook. Callers serialise
// it: segment writers are single-producer.
func (ls *liveState) ingest(pg *crawler.Page, tr *tracer) {
	s := tr.begin("textproc.parse", -1)
	terms := textproc.Tokenize(textproc.ParseHTML(pg.HTML).Text)
	tr.end(s)
	if len(terms) == 0 {
		return
	}
	s = tr.begin("index.add", -1)
	err := ls.writers[pg.PageID%partitions].AddDocument(pg.PageID, terms)
	tr.end(s)
	if err == nil {
		ls.added++
	}
}

// query is one distinct query of the pool.
type query struct {
	terms []string // as the front-end tokenizes the request text
	req   []byte   // the HTTP/1.1 request, ready to write
}

// script is the seeded op sequence of one run: op >= 0 is a query (an
// index into pool), op < 0 ingests pages[preIngest + (-op-1)].
type script struct {
	pool []query
	ops  []int32
}

// makeScript draws the run's op sequence from the seed: Zipf(0.9)
// instances over the query pool, and for live_ingest an ingest op in
// every 5th position taking the not-yet-indexed pages in crawl order.
// The pool itself (querylog.Generate over the fixed web) is pinned like
// the corpus: under Zipf(0.9) some hundred head queries carry half the
// traffic, so a reseeded pool moves the mean query cost by more than any
// bound in BENCHMARK.json, and runs of different seeds could not be
// compared.
func makeScript(sys *system, w workload, p profile, seed int64, n int) (*script, error) {
	lcfg := querylog.DefaultConfig()
	lcfg.Seed = corpusSeed
	lcfg.Distinct = p.pool
	lcfg.Total = 0
	lcfg.MinTerms, lcfg.MaxTerms = 1, 3
	lg := querylog.Generate(sys.web, lcfg)
	sc := &script{pool: make([]query, len(lg.Pool)), ops: make([]int32, n)}
	for i, q := range lg.Pool {
		text := strings.Join(q.Terms, " ")
		sc.pool[i] = query{
			terms: textproc.Tokenize(text),
			req: []byte(fmt.Sprintf("GET /search?q=%s&k=%d HTTP/1.1\r\nHost: bench\r\n\r\n",
				url.QueryEscape(text), w.k)),
		}
	}
	rng := randx.New(seed)
	zipf := randx.NewZipf(len(sc.pool), 0.9)
	ingests := 0
	for i := range sc.ops {
		if w.live && i%ingestPerOps == 0 {
			ingests++
			sc.ops[i] = int32(-ingests)
			continue
		}
		sc.ops[i] = int32(zipf.Draw(rng))
	}
	if w.live && p.preIngest+ingests > len(sys.live.pages) {
		return nil, fmt.Errorf("script ingests %d pages, only %d are left after set-up",
			ingests, len(sys.live.pages)-p.preIngest)
	}
	return sc, nil
}
