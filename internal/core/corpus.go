package core

import (
	"errors"
	"sort"

	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// Corpus is the crawled and parsed collection, before any partitioning
// or indexing: what Build indexes, and all a caller that partitions the
// documents its own way (a federation of sites, say) needs.
type Corpus struct {
	Web       *simweb.Web
	Crawler   *crawler.Crawler
	CrawlInfo crawler.Stats
	Docs      []index.Doc    // ascending by Ext, the simweb page ID
	urls      map[int]string // doc ext ID -> URL
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

// parse builds Docs and the URL table from the crawler's pages.
func (c *Corpus) parse() error {
	pages := c.Crawler.Pages()
	ids := make([]int, 0, len(pages))
	for pid := range pages {
		ids = append(ids, pid)
	}
	sort.Ints(ids)
	c.urls = make(map[int]string)
	for _, pid := range ids {
		p := pages[pid]
		if d, ok := PageDoc(p); ok {
			c.Docs = append(c.Docs, d)
			c.urls[pid] = p.URL
		}
	}
	if len(c.Docs) == 0 {
		return errors.New("core: crawl produced no indexable documents")
	}
	return nil
}

// URLOf resolves a document ID to its URL ("" if unknown).
func (c *Corpus) URLOf(doc int) string { return c.urls[doc] }

// PageDoc parses a crawled page into the document the indexers take:
// the page ID and the tokens of its visible text. ok is false for a
// page with no indexable text.
func PageDoc(p *crawler.Page) (doc index.Doc, ok bool) {
	terms := textproc.Tokenize(textproc.ParseHTML(p.HTML).Text)
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
