package core

import (
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

func crawlCorpus(t *testing.T, cfg Config) *Corpus {
	t.Helper()
	c, err := Crawl(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// logQueries is the head of a query log over web: n term lists.
func logQueries(web *simweb.Web, n int) [][]string {
	lcfg := querylog.DefaultConfig()
	lcfg.Total = n
	lcfg.Distinct = n
	var qs [][]string
	for _, q := range querylog.Generate(web, lcfg).Queries {
		qs = append(qs, q.Terms)
	}
	return qs
}

// TestCrawlDeterministic: the crawl-and-parse stage is a function of its
// configuration — same documents, same URLs, same crawl report.
func TestCrawlDeterministic(t *testing.T) {
	a, b := crawlCorpus(t, smallConfig()), crawlCorpus(t, smallConfig())
	if len(a.Docs) < 100 || !reflect.DeepEqual(a.Docs, b.Docs) {
		t.Fatalf("two crawls of one configuration parsed %d and %d documents, or different ones", len(a.Docs), len(b.Docs))
	}
	if !reflect.DeepEqual(a.CrawlInfo, b.CrawlInfo) {
		t.Fatalf("crawl reports differ:\n%+v\n%+v", a.CrawlInfo, b.CrawlInfo)
	}
	for i, d := range a.Docs {
		if i > 0 && a.Docs[i-1].Ext >= d.Ext {
			t.Fatalf("documents not ascending by ID at %d", i)
		}
		if u := a.URLOf(d.Ext); u == "" || u != b.URLOf(d.Ext) || u != a.Web.URL(d.Ext) {
			t.Fatalf("document %d: URLs %q and %q, the web says %q", d.Ext, u, b.URLOf(d.Ext), a.Web.URL(d.Ext))
		}
	}
}

// serialParse is the oracle for Crawl's parse: the crawler's pages
// (the last fetch of each), ascending by ID, each through PageDoc
// against one table; URLs maps each document to its page's URL.
func serialParse(cr *crawler.Crawler) (docs []index.Doc, urls map[int]string) {
	pages := make([]*crawler.Page, 0, len(cr.Pages()))
	for _, p := range cr.Pages() {
		pages = append(pages, p)
	}
	slices.SortFunc(pages, func(x, y *crawler.Page) int { return x.PageID - y.PageID })
	var ts textproc.Terms
	urls = make(map[int]string)
	for _, p := range pages {
		if d, ok := PageDoc(p, &ts); ok {
			docs = append(docs, d)
			urls[p.PageID] = p.URL
		}
	}
	return docs, urls
}

// matchSerialParse fails t unless c's documents and URL table are
// serialParse's over its crawler.
func matchSerialParse(t *testing.T, c *Corpus) {
	t.Helper()
	docs, urls := serialParse(c.Crawler)
	if len(docs) < 100 || !reflect.DeepEqual(c.Docs, docs) {
		t.Fatalf("Crawl parsed %d documents, the serial parse %d (or different ones)", len(c.Docs), len(docs))
	}
	for id := -1; id <= len(c.Web.Pages); id++ {
		if got := c.URLOf(id); got != urls[id] {
			t.Fatalf("ID %d resolves to %q, the serial parse says %q", id, got, urls[id])
		}
	}
}

// TestCrawlParsesLikeSerialOracle: the parser goroutine beside the crawl
// yields the documents and URLs a parse after the crawl would, whether
// it shares one core with the crawl or has its own.
func TestCrawlParsesLikeSerialOracle(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			matchSerialParse(t, crawlCorpus(t, smallConfig()))
		})
	}
}

// TestCrawlRefetchLastWins: a page fetched twice is the document of its
// last fetch. A crawl whose agent fails after a first pass refetches
// the pages of the hosts it owned, and parses like the oracle; the
// parser, fed two fetches of one page, keeps the second, and a textless
// refetch takes the page out.
func TestCrawlRefetchLastWins(t *testing.T) {
	cfg := smallConfig()
	web := simweb.New(cfg.Web)
	cr := crawler.New(web, cfg.Crawl)
	cr.SeedFrontPages()
	c, err := crawl(web, cr, func() crawler.Stats {
		cr.Run()
		cr.FailAgent(0)
		return cr.Run()
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.CrawlInfo.DuplicateFetches == 0 {
		t.Fatal("the failed agent's pages were not refetched")
	}
	matchSerialParse(t, c)
	// Crawl cleared its hook: a further crawl of the corpus's crawler
	// hands nothing to the finished parser.
	cr.FailAgent(1)
	cr.Run()

	pp := newPageParser(3)
	for _, p := range []crawler.Page{
		{PageID: 1, HTML: "<p>first fetch</p>"},
		{PageID: 2, HTML: "<p>kept text</p>"},
		{PageID: 1, HTML: "<p>second fetch</p>"},
		{PageID: 2, HTML: "<p> - </p>"},
	} {
		pp.add(&p)
	}
	want := [][]string{nil, {"second", "fetch"}, nil}
	if got := pp.wait(); !reflect.DeepEqual(got, want) {
		t.Fatalf("parser kept %q, want %q", got, want)
	}
}

// TestLiveIngestKnownTermsAllocatesNoStrings: Live tokenizes against
// its one table, so ingesting a new page ID whose terms it has seen
// allocates no term strings — its allocations (text, term slice,
// writer) stay far below its count of distinct terms, where the
// table-less tokenizer allocates one string for each token.
func TestLiveIngestKnownTermsAllocatesNoStrings(t *testing.T) {
	live, err := NewLive(1, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	c := crawlCorpus(t, smallConfig())
	d := c.Docs[len(c.Docs)/2]
	p := *c.Crawler.Pages()[d.Ext]
	sorted := slices.Clone(d.Terms)
	slices.Sort(sorted)
	distinct := len(slices.Compact(sorted))
	if _, ok := live.Ingest(&p); !ok || distinct < 20 {
		t.Fatalf("page %d: ingested %v, %d distinct terms", p.PageID, ok, distinct)
	}
	allocs := testing.AllocsPerRun(50, func() {
		p.PageID += len(c.Web.Pages)
		if _, ok := live.Ingest(&p); !ok {
			t.Fatalf("page %d was not ingested", p.PageID)
		}
	})
	t.Logf("%.1f allocations per ingest of %d tokens over %d distinct terms", allocs, len(d.Terms), distinct)
	if allocs >= float64(distinct)/4 {
		t.Fatalf("%.1f allocations per ingest of a page of %d known distinct terms", allocs, distinct)
	}
}

// TestBuildIsCrawlThenIndex: Build adds nothing to Crawl but the
// partitioning and the engine — its documents are Crawl's, and its
// answers (results and work accounting alike) are those of a DocEngine
// constructed directly over them.
func TestBuildIsCrawlThenIndex(t *testing.T) {
	cfg := smallConfig()
	e, c := buildEngine(t, cfg), crawlCorpus(t, cfg)
	if !reflect.DeepEqual(e.Docs, c.Docs) {
		t.Fatalf("Build indexed %d documents, Crawl parsed %d (or different ones)", len(e.Docs), len(c.Docs))
	}
	dp := partition.RoundRobinDocs(index.DocIDs(c.Docs), cfg.Partitions)
	if !reflect.DeepEqual(e.Partition, dp) {
		t.Fatal("Build's partition is not round-robin over Crawl's documents")
	}
	direct, err := qproc.NewDocEngine(cfg.Index, c.Docs, dp)
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for _, q := range logQueries(c.Web, 50) {
		want, got := direct.QueryTopK(q, 10), e.Query.QueryTopK(q, 10)
		if fmt.Sprintf("%+v", want) != fmt.Sprintf("%+v", got) {
			t.Fatalf("query %v:\ndirect %+v\nBuild  %+v", q, want, got)
		}
		if len(got.Results) > 0 {
			answered++
		}
	}
	if answered < 25 {
		t.Fatalf("only %d of 50 log queries matched anything", answered)
	}
}

// TestLiveSealedAnswersLikeStatic pins the continuous pipeline: a crawl
// streamed page by page through Live.Ingest and sealed holds exactly
// the documents Crawl parses, each in partition ID mod K, and answers
// bit for bit like the static engine over those documents.
func TestLiveSealedAnswersLikeStatic(t *testing.T) {
	cfg := smallConfig()
	cfg.Partitions = 3
	static := buildEngine(t, cfg)

	live, err := NewLive(cfg.Partitions, 16)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	cr := crawler.New(simweb.New(cfg.Web), cfg.Crawl)
	cr.SeedFrontPages()
	cr.OnPage(func(p *crawler.Page) {
		part, ok := live.Ingest(p)
		if ok {
			accepted++
			if part != p.PageID%cfg.Partitions {
				t.Errorf("page %d ingested into partition %d", p.PageID, part)
			}
		}
	})
	cr.Run()
	if got := live.Query.NumDocs(); got >= accepted {
		t.Fatalf("%d of %d accepted documents searchable before Seal; the tail should still be buffered", got, accepted)
	}
	if err := live.Seal(); err != nil {
		t.Fatal(err)
	}

	if accepted != len(static.Docs) || live.Query.NumDocs() != accepted {
		t.Fatalf("live accepted %d pages and serves %d, the static engine indexed %d",
			accepted, live.Query.NumDocs(), len(static.Docs))
	}
	for _, d := range static.Docs {
		if !live.Stores()[d.Ext%cfg.Partitions].Manifest().Contains(d.Ext) {
			t.Fatalf("document %d is not in store %d", d.Ext, d.Ext%cfg.Partitions)
		}
	}
	answered := 0
	for _, q := range logQueries(static.Web, 50) {
		want, got := static.Query.QueryTopK(q, 10).Results, live.Query.Query(q, 10).Results
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("query %v:\nstatic %v\nlive   %v", q, want, got)
		}
		if len(got) > 0 {
			answered++
		}
	}
	if answered < 25 {
		t.Fatalf("only %d of 50 log queries matched anything", answered)
	}
}

// TestURLTableEdgeCases: the contiguous URL table answers what a map
// from document ID to URL would. Every document resolves to the web's
// URL for it; a crawled page with no indexable text, a page the crawl
// never reached, a negative ID and an ID past the end resolve to "".
func TestURLTableEdgeCases(t *testing.T) {
	crawled := crawlCorpus(t, smallConfig())
	// Every simulated page renders a title, so blank two crawled pages
	// — the lowest ID and one mid-table — and parse the crawl again.
	pages := crawled.Crawler.Pages()
	textless := []int{crawled.Docs[0].Ext, crawled.Docs[len(crawled.Docs)/2].Ext}
	for _, id := range textless {
		pages[id].HTML = "<html><body> <p> - </p></body></html>"
	}
	pp := newPageParser(len(crawled.Web.Pages))
	for _, p := range pages {
		pp.add(p)
	}
	c := &Corpus{Web: crawled.Web, Crawler: crawled.Crawler}
	if err := c.assemble(pp.wait()); err != nil {
		t.Fatal(err)
	}
	if len(c.Docs) != len(crawled.Docs)-len(textless) {
		t.Fatalf("%d documents after blanking %d of %d", len(c.Docs), len(textless), len(crawled.Docs))
	}
	isDoc := make(map[int]bool, len(c.Docs))
	for _, d := range c.Docs {
		isDoc[d.Ext] = true
		if u := c.URLOf(d.Ext); u == "" || u != c.Web.URL(d.Ext) {
			t.Fatalf("document %d resolves to %q, the web says %q", d.Ext, u, c.Web.URL(d.Ext))
		}
	}
	uncrawled := 0
	for _, p := range c.Web.Pages {
		if isDoc[p.ID] {
			continue
		}
		if _, ok := pages[p.ID]; !ok {
			uncrawled++
		}
		if u := c.URLOf(p.ID); u != "" {
			t.Fatalf("page %d is no document but resolves to %q", p.ID, u)
		}
	}
	if uncrawled == 0 {
		t.Fatal("the crawl reached every page: no uncrawled ID to check")
	}
	last := c.Docs[len(c.Docs)-1].Ext
	for _, id := range append(textless, -1, -1<<40, last+1, len(c.Web.Pages), 1<<40) {
		if u := c.URLOf(id); u != "" {
			t.Fatalf("ID %d resolves to %q", id, u)
		}
	}
}

// TestCrawlStoresEachTermOnce: Crawl tokenizes the whole crawl against
// one table, so equal terms across documents are one string and each
// document's Terms is exactly sized, and the table changes no document:
// each one's terms are the table-less tokenizer's for its page (and
// FuzzTokenize holds that tokenizer to the one before the table). Build
// keeps the crawl's report but lets go of the Crawler; a Crawl corpus
// keeps it, and can recrawl.
func TestCrawlStoresEachTermOnce(t *testing.T) {
	c := crawlCorpus(t, smallConfig())
	pages := c.Crawler.Pages()
	first := make(map[string]*byte)
	tokens := 0
	for _, d := range c.Docs {
		if len(d.Terms) != cap(d.Terms) {
			t.Fatalf("document %d: %d terms in a slice of %d", d.Ext, len(d.Terms), cap(d.Terms))
		}
		if want := textproc.Tokenize(textproc.ParseHTML(pages[d.Ext].HTML).Text); !slices.Equal(d.Terms, want) {
			t.Fatalf("document %d: terms %q, its page tokenizes to %q", d.Ext, d.Terms, want)
		}
		for _, term := range d.Terms {
			p, ok := first[term]
			if !ok {
				first[term] = unsafe.StringData(term)
			} else if p != unsafe.StringData(term) {
				t.Fatalf("document %d holds a second copy of %q", d.Ext, term)
			}
		}
		tokens += len(d.Terms)
	}
	if len(first) == 0 || tokens < 2*len(first) {
		t.Fatalf("%d tokens over %d distinct terms: too few repeats to test sharing", tokens, len(first))
	}

	e := buildEngine(t, smallConfig())
	if e.Crawler != nil {
		t.Fatal("Build kept the Crawler")
	}
	if e.CrawlInfo.DistinctPages == 0 || !reflect.DeepEqual(e.CrawlInfo, c.CrawlInfo) {
		t.Fatalf("Build's crawl report %+v is not Crawl's %+v", e.CrawlInfo, c.CrawlInfo)
	}
	if st := c.Crawler.Recrawl(15, false); st.Pages != len(pages) || st.ConditionalRequests == 0 {
		t.Fatalf("a Crawl corpus could not recrawl: %+v", st)
	}
}

// BenchmarkBuild is Build at smallConfig: the set-up behind bench's
// setup_s and heap_mb, whose traced parts are textproc.parse_us_per_doc
// and index.build_s. Beside allocs/op it reports retained-B/token, the
// live heap after a GC with the engine held, divided by the tokens of
// its documents.
func BenchmarkBuild(b *testing.B) {
	b.ReportAllocs()
	var e *Engine
	for i := 0; i < b.N; i++ {
		var err error
		if e, err = Build(smallConfig()); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tokens := 0
	for _, d := range e.Docs {
		tokens += len(d.Terms)
	}
	b.ReportMetric(float64(ms.HeapAlloc)/float64(tokens), "retained-B/token")
	runtime.KeepAlive(e)
}

// BenchmarkCrawl is Crawl at smallConfig: the web, the crawl and the
// parse beside it, behind crawler.crawl_s and textproc.parse_us_per_doc
// in bench's set-up.
func BenchmarkCrawl(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Crawl(smallConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageDoc is PageDoc over every page of a smallConfig crawl,
// ascending by page ID, against one Terms table: the parse behind
// textproc.parse_us_per_doc. An op is one pass over the pages; ns/page
// is its time per page.
func BenchmarkPageDoc(b *testing.B) {
	c, err := Crawl(smallConfig())
	if err != nil {
		b.Fatal(err)
	}
	var pages []*crawler.Page
	for _, p := range c.Crawler.Pages() {
		pages = append(pages, p)
	}
	slices.SortFunc(pages, func(x, y *crawler.Page) int { return x.PageID - y.PageID })
	var ts textproc.Terms
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range pages {
			pageDocSink, _ = PageDoc(p, &ts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(pages)), "ns/page")
}

// pageDocSink keeps BenchmarkPageDoc's calls from being optimized away.
var pageDocSink index.Doc
