// crawl_and_search walks through the paper's offline pipeline a layer at
// a time: generate a Web, crawl it with distributed agents and parse the
// crawled HTML (core.Crawl, the pipeline's first half), then — with the
// substrate packages directly — build the inverted index with the
// single-pass (SPIMI) builder and evaluate BM25 queries, run an
// incremental re-crawl and show the freshness economics of
// If-Modified-Since and sitemaps.
//
//	go run ./examples/crawl_and_search
package main

import (
	"fmt"
	"log"

	"dwr/internal/core"
	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/rank"
	"dwr/internal/simweb"
)

func main() {
	// 1. A synthetic Web: 150 servers with power-law sizes, flaky hosts,
	// broken HTML, robots.txt — everything Section 3 warns about.
	// 2. Distributed crawl: 6 agents under consistent-hash assignment,
	// batched URL exchange, politeness, DNS caching; every crawled page
	// parsed into a tokenized document.
	cfg := core.Config{Web: simweb.DefaultConfig(), Crawl: crawler.DefaultConfig()}
	cfg.Web.Hosts = 150
	cfg.Crawl.Agents = 6
	corpus, err := core.Crawl(cfg)
	if err != nil {
		log.Fatal(err)
	}
	web, c, st := corpus.Web, corpus.Crawler, corpus.CrawlInfo
	fmt.Printf("generated %d hosts, %d pages (%d crawlable)\n",
		len(web.Hosts), len(web.Pages), web.CrawlablePages())
	fmt.Printf("crawl: %d pages, coverage %.1f%%, %d URL exchanges in %d messages, %.0f virtual seconds\n",
		st.DistinctPages, st.Coverage*100, st.URLsExchanged, st.ExchangeMessages, st.VirtualSeconds)

	// 3. Index with the single-pass builder (1 MiB memory budget, spill
	// runs merged on disk).
	b, err := index.NewSPIMIBuilder(index.DefaultOptions(), 1<<20, "")
	if err != nil {
		log.Fatal(err)
	}
	for _, d := range corpus.Docs {
		if err := b.AddDocument(d.Ext, d.Terms); err != nil {
			log.Fatal(err)
		}
	}
	ix, err := b.Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d docs, %d terms, %d KB of postings, %d spill runs merged\n",
		ix.NumDocs(), ix.NumTerms(), ix.SizeBytes()/1024, b.Spills())

	// 4. Query with BM25.
	scorer := rank.NewScorer(rank.FromIndex(ix))
	sample := ix.Terms()[len(ix.Terms())/3]
	results, es := rank.EvaluateOR(ix, scorer, []string{sample}, 5)
	fmt.Printf("\nquery %q (%d postings decoded):\n", sample, es.PostingsDecoded)
	for i, r := range results {
		fmt.Printf("%d. %-40s score=%.4f\n", i+1, web.URL(r.Doc), r.Score)
	}

	// 5. Freshness: re-crawl two weeks later, with and without sitemaps.
	plain := c.Recrawl(15, false)
	maps := c.Recrawl(30, true)
	fmt.Printf("\nre-crawl day 15: %d requests, %d unchanged (304), %d refetched\n",
		plain.ConditionalRequests, plain.NotModified, plain.Refetched)
	fmt.Printf("re-crawl day 30 with sitemaps: %d requests avoided entirely, %d issued\n",
		maps.SkippedViaSitemap, maps.ConditionalRequests)
}
