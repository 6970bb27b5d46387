package crawler

import (
	"slices"

	"dwr/internal/randx"
	"dwr/internal/simweb"
)

// RecrawlStats summarizes an incremental re-crawl pass — the paper's
// freshness maintenance discussion (Section 3, Communication): the
// crawler polls for changes, If-Modified-Since reduces (but does not
// eliminate) the polling cost, and server-provided sitemaps eliminate
// even the conditional requests for unchanged pages.
type RecrawlStats struct {
	Pages               int // pages considered for refresh
	ConditionalRequests int // HTTP requests issued with If-Modified-Since
	NotModified         int // 304 answers (request made, body saved)
	Refetched           int // 200 answers (page actually changed, or server non-conforming)
	SkippedViaSitemap   int // pages not even requested thanks to sitemap lastmod
	Failures            int // transient failures during the pass
}

// Recrawl refreshes every collected page as of virtual day `day`. With
// useSitemaps, hosts that expose a sitemap are consulted first and
// unchanged pages are skipped without any HTTP request; all other pages
// get one conditional request each. The crawled copies are updated in
// place.
func (c *Crawler) Recrawl(day int, useSitemaps bool) RecrawlStats {
	var st RecrawlStats
	rng := randx.New(c.cfg.Seed + int64(day)*7919)

	// Group collected pages by host so sitemaps are fetched once. Every
	// fetch draws from the one rng, so pages are visited in page-ID order
	// and hosts in name order: map order must not reach the counts.
	ids := make([]int, 0, len(c.collected))
	for id := range c.collected {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	byHost := make(map[string][]*Page)
	var hosts []string
	for _, id := range ids {
		p := c.collected[id]
		host, _, ok := simweb.SplitURL(p.URL)
		if !ok {
			continue
		}
		if byHost[host] == nil {
			hosts = append(hosts, host)
		}
		byHost[host] = append(byHost[host], p)
	}
	slices.Sort(hosts)

	for _, host := range hosts {
		pages := byHost[host]
		var sitemapMod map[string]int
		if useSitemaps {
			if entries := c.web.Sitemap(host, day); entries != nil {
				sitemapMod = make(map[string]int, len(entries))
				for _, e := range entries {
					sitemapMod[e.URL] = e.LastMod
				}
			}
		}
		for _, p := range pages {
			st.Pages++
			if sitemapMod != nil {
				if lm, ok := sitemapMod[p.URL]; ok && lm <= p.LastMod {
					st.SkippedViaSitemap++
					continue
				}
			}
			st.ConditionalRequests++
			res := c.web.Fetch(rng, p.URL, day, p.LastMod)
			switch res.Status {
			case simweb.StatusNotModified:
				st.NotModified++
			case simweb.StatusOK:
				st.Refetched++
				p.HTML = res.HTML
				p.Day = day
				p.LastMod = res.LastModified
			default:
				st.Failures++
			}
		}
	}
	return st
}
