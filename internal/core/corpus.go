package core

import (
	"errors"
	"math"
	"strings"

	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// Corpus is the crawled and parsed collection, before any partitioning
// or indexing: what Build indexes, and all a caller that partitions the
// documents its own way (a federation of sites, say) needs.
type Corpus struct {
	Web *simweb.Web
	// Crawler is the crawl, for a caller that recrawls or re-reads its
	// pages. Build sets it to nil once the crawl is parsed: its pages'
	// HTML is most of what it holds, and nothing serving reads it.
	Crawler   *crawler.Crawler
	CrawlInfo crawler.Stats
	// Docs is ascending by Ext, the simweb page ID. Equal terms across
	// documents are one string, and each Terms slice is exactly sized.
	Docs []index.Doc

	// urls is every document's URL, back to back in ID order; urlEnd[id]
	// is where page id's URL ends, and the previous entry where it starts
	// (so a page that is no document spans nothing).
	urls   string
	urlEnd []uint32
}

// Crawl runs the first two modules of the paper's chain: generate the
// synthetic Web of cfg.Web, crawl it with cfg.Crawl from every host's
// front page, and parse each page into a tokenized document while the
// crawl runs.
func Crawl(cfg Config) (*Corpus, error) {
	web := simweb.New(cfg.Web)
	cr := crawler.New(web, cfg.Crawl)
	cr.SeedFrontPages()
	return crawl(web, cr, cr.Run)
}

// crawl drives cr with run, a pageParser on its OnPage hook, then clears
// the hook and assembles the corpus from the terms the parser kept.
func crawl(web *simweb.Web, cr *crawler.Crawler, run func() crawler.Stats) (*Corpus, error) {
	pp := newPageParser(len(web.Pages))
	cr.OnPage(pp.add)
	info := run()
	cr.OnPage(nil)
	c := &Corpus{Web: web, Crawler: cr, CrawlInfo: info}
	if err := c.assemble(pp.wait()); err != nil {
		return nil, err
	}
	return c, nil
}

// pageParser turns crawled pages into documents on one goroutine beside
// the crawl. That goroutine owns the crawl's one textproc.Terms table
// and keeps each page's terms by page ID (nil: no indexable text, or
// never fetched). A refetch replaces the earlier fetch's terms, as the
// last fetch is the one Crawler.Pages keeps.
type pageParser struct {
	batch   []*crawler.Page
	batches chan []*crawler.Page
	done    chan struct{}
	terms   [][]string // by page ID; read only once done is closed
}

// The crawl hands the parser parseBatch pages at a time, so the parser
// wakes once a batch, and up to parseSlack batches wait for it: a run of
// long pages to parse does not stall the crawl, though the two stages
// take about the same time overall.
const (
	parseBatch = 64
	parseSlack = 16
)

// newPageParser starts a parser for the pages of a web of n pages.
func newPageParser(n int) *pageParser {
	pp := &pageParser{
		batch:   make([]*crawler.Page, 0, parseBatch),
		batches: make(chan []*crawler.Page, parseSlack),
		done:    make(chan struct{}),
		terms:   make([][]string, n),
	}
	go func() {
		defer close(pp.done)
		var ts textproc.Terms
		for batch := range pp.batches {
			for _, p := range batch {
				d, _ := PageDoc(p, &ts) // no indexable text: nil terms
				pp.terms[p.PageID] = d.Terms
			}
		}
	}()
	return pp
}

// add hands a fetched page to the parser.
func (pp *pageParser) add(p *crawler.Page) {
	if pp.batch = append(pp.batch, p); len(pp.batch) == parseBatch {
		pp.batches <- pp.batch
		pp.batch = make([]*crawler.Page, 0, parseBatch)
	}
}

// wait ends the hand-off and returns the parser's terms by page ID.
func (pp *pageParser) wait() [][]string {
	pp.batches <- pp.batch
	close(pp.batches)
	<-pp.done
	return pp.terms
}

// assemble builds Docs, ascending by ID, from each page's terms (by page
// ID), and the URL table from the crawled pages' URLs.
func (c *Corpus) assemble(terms [][]string) error {
	pages := c.Crawler.Pages()
	n, docs, last := 0, 0, -1
	for id, ts := range terms {
		if ts != nil {
			n += len(pages[id].URL)
			docs++
			last = id
		}
	}
	if docs == 0 {
		return errors.New("core: crawl produced no indexable documents")
	}
	if n > math.MaxUint32 {
		return errors.New("core: the crawl's URLs exceed 4 GiB")
	}
	var urls strings.Builder
	urls.Grow(n)
	c.Docs = make([]index.Doc, 0, docs)
	c.urlEnd = make([]uint32, last+1)
	for id, ts := range terms[:last+1] {
		if ts != nil {
			c.Docs = append(c.Docs, index.Doc{Ext: id, Terms: ts})
			urls.WriteString(pages[id].URL)
		}
		c.urlEnd[id] = uint32(urls.Len())
	}
	c.urls = urls.String()
	return nil
}

// URLOf resolves a document ID to its URL ("" if unknown).
func (c *Corpus) URLOf(doc int) string {
	if doc < 0 || doc >= len(c.urlEnd) {
		return ""
	}
	start := uint32(0)
	if doc > 0 {
		start = c.urlEnd[doc-1]
	}
	return c.urls[start:c.urlEnd[doc]]
}

// PageDoc parses a crawled page into the document the indexers take:
// the page ID and the tokens of its visible text, tokenized against ts
// (nil: without a table). ok is false for a page with no indexable text.
func PageDoc(p *crawler.Page, ts *textproc.Terms) (doc index.Doc, ok bool) {
	terms := ts.Tokenize(textproc.ParseHTML(p.HTML).Text)
	return index.Doc{Ext: p.PageID, Terms: terms}, len(terms) > 0
}

// WebDocs returns web's exact collection, ascending by page ID: one
// document per public page, built straight from the page's words with
// no crawl (so no fetch failures) and no HTML in between.
func WebDocs(web *simweb.Web) []index.Doc {
	var docs []index.Doc
	for _, p := range web.Pages {
		if !p.Private {
			docs = append(docs, index.Doc{Ext: p.ID, Terms: web.Words(p.ID)})
		}
	}
	return docs
}
