package core

import (
	"errors"
	"math"
	"sort"
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
// front page, and parse each crawled page into a tokenized document.
func Crawl(cfg Config) (*Corpus, error) {
	web := simweb.New(cfg.Web)
	c := &Corpus{Web: web, Crawler: crawler.New(web, cfg.Crawl)}
	c.Crawler.SeedFrontPages()
	c.CrawlInfo = c.Crawler.Run()
	if err := c.parse(); err != nil {
		return nil, err
	}
	return c, nil
}

// parse builds Docs and the URL table from the crawler's pages,
// tokenizing the whole crawl against one table of distinct terms.
func (c *Corpus) parse() error {
	pages := c.Crawler.Pages()
	ids := make([]int, 0, len(pages))
	var urls strings.Builder
	n := 0
	for pid, p := range pages {
		ids = append(ids, pid)
		n += len(p.URL)
	}
	if n > math.MaxUint32 {
		return errors.New("core: the crawl's URLs exceed 4 GiB")
	}
	sort.Ints(ids)
	var terms textproc.Terms
	urls.Grow(n)
	if len(ids) > 0 {
		c.urlEnd = make([]uint32, 0, ids[len(ids)-1]+1)
	}
	for _, pid := range ids {
		p := pages[pid]
		d, ok := PageDoc(p, &terms)
		if !ok {
			continue
		}
		c.Docs = append(c.Docs, d)
		for len(c.urlEnd) < pid {
			c.urlEnd = append(c.urlEnd, uint32(urls.Len()))
		}
		urls.WriteString(p.URL)
		c.urlEnd = append(c.urlEnd, uint32(urls.Len()))
	}
	if len(c.Docs) == 0 {
		return errors.New("core: crawl produced no indexable documents")
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
