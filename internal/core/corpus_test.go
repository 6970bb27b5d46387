package core

import (
	"fmt"
	"reflect"
	"testing"

	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/simweb"
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

	live, err := NewLive(cfg.Partitions, 16, nil)
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
