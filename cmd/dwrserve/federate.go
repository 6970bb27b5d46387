package main

import (
	"fmt"
	"net/http"

	"dwr/internal/chash"
	"dwr/internal/cluster"
	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/simweb"
)

// newFederate serves the crawled corpus as a federation of sites with
// the query mediator on the serving path: documents are split across
// sites by Web host (the natural federation boundary — one site per
// group of hosts), the mediator ranks sites by their collection
// statistics, and every query is routed to the mediator-selected site
// subset — a quarter of the sites at most — with full fan-out below
// confidence 0.15. The /stats endpoint's
// Selection counters report how many sites queries touched and the
// sampled Recall@k of mediated answers against the exhaustive fan-out.
// It returns the HTTP handler plus the crawled corpus.
func newFederate(o options) (http.Handler, *core.Corpus, error) {
	fmt.Printf("dwrserve: building corpus (%d hosts, %d partitions)...\n", o.hosts, o.partitions)
	cfg := corpusConfig(o)
	corpus, err := core.Crawl(cfg)
	if err != nil {
		return nil, nil, err
	}

	// Split the corpus across sites by host: every page of a host lands
	// at one site, so each site's collection has real topical identity
	// for the selector to exploit.
	siteDocs := make([][]index.Doc, o.sites)
	for _, d := range corpus.Docs {
		s := hostSite(corpus.URLOf(d.Ext), o.sites)
		siteDocs[s] = append(siteDocs[s], d)
	}

	engines := make([]*qproc.DocEngine, o.sites)
	for s := range engines {
		if len(siteDocs[s]) == 0 {
			return nil, nil, fmt.Errorf("site %d received no documents; use fewer sites or more hosts", s)
		}
		e, err := qproc.NewDocEngine(cfg.Index, siteDocs[s],
			partition.RoundRobinDocs(index.DocIDs(siteDocs[s]), o.partitions))
		if err != nil {
			return nil, nil, err
		}
		engines[s] = e
	}

	ms := qproc.NewMultiSite(cluster.NewNetwork(o.seed), qproc.RouteGeo,
		qproc.WithMediator(0, 0.15))
	ms.SampleEvery = o.sampleEvery
	if o.cacheCap > 0 {
		ms.CacheTTL = 24
	}
	for s, e := range engines {
		// No hourly capacity: the server's virtual clock (ms.Now) never
		// advances, so an hour's load would only ever accumulate into
		// queue delay.
		ms.Sites = append(ms.Sites, qproc.NewSite(s, s, e, o.cacheCap, 0))
		fmt.Printf("dwrserve: site %d holds %d documents\n", s, len(siteDocs[s]))
	}
	return frontend(ms, corpus.URLOf, o), corpus, nil
}

// hostSite assigns a document's host to a site deterministically.
func hostSite(url string, sites int) int {
	host, _, _ := simweb.SplitURL(url)
	return int(chash.Hash64(host) % uint64(sites))
}
