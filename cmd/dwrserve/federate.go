package main

import (
	"fmt"
	"hash/fnv"
	"net/http"
	"strings"

	"dwr/internal/cluster"
	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
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
	if o.sites < 1 {
		return nil, nil, fmt.Errorf("a federation needs at least one site, got %d", o.sites)
	}
	cfg := prunedConfig(o)
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
		cap := o.cacheCap
		if cap <= 0 {
			cap = 1
		}
		// No hourly capacity: the server's virtual clock (ms.Now) never
		// advances, so an hour's load would only ever accumulate into
		// queue delay.
		ms.Sites = append(ms.Sites, qproc.NewSite(s, s, e, cap, 0))
		fmt.Printf("dwrserve: site %d holds %d documents\n", s, len(siteDocs[s]))
	}
	return frontend(ms, corpus.URLOf, o), corpus, nil
}

// hostSite assigns a document's host to a site deterministically.
func hostSite(url string, sites int) int {
	host := strings.TrimPrefix(url, "http://")
	host = strings.TrimPrefix(host, "https://")
	if i := strings.IndexByte(host, '/'); i >= 0 {
		host = host[:i]
	}
	h := fnv.New32a()
	h.Write([]byte(host))
	return int(h.Sum32() % uint32(sites))
}
