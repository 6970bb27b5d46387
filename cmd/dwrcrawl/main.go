// Command dwrcrawl runs a distributed crawl of a synthetic Web and
// prints the crawl report: coverage, politeness-bounded virtual
// duration, URL-exchange traffic, DNS load, failures, and the
// incremental re-crawl economics.
//
// Usage:
//
//	dwrcrawl -hosts 300 -agents 8 -assignment consistent -batch 64
package main

import (
	"flag"
	"fmt"
	"os"

	"dwr/internal/crawler"
	"dwr/internal/metrics"
	"dwr/internal/simweb"
)

func main() {
	hosts := flag.Int("hosts", 200, "number of Web servers to generate")
	agents := flag.Int("agents", 4, "crawling agents")
	assignment := flag.String("assignment", "consistent", "URL assignment: consistent | mod")
	batch := flag.Int("batch", 64, "URLs per exchange message")
	seedTop := flag.Int("seed-most-cited", 100, "most-cited URLs pre-seeded into all agents (0 = off)")
	seed := flag.Int64("seed", 1, "random seed")
	failAgent := flag.Int("fail-agent", -1, "fail this agent after its first drain (-1 = none)")
	recrawlDay := flag.Int("recrawl-day", 15, "virtual day of the incremental re-crawl (0 = skip)")
	flag.Parse()

	wcfg := simweb.DefaultConfig()
	wcfg.Seed = *seed
	wcfg.Hosts = *hosts
	web := simweb.New(wcfg)

	ccfg := crawler.DefaultConfig()
	ccfg.Seed = *seed
	ccfg.Agents = *agents
	ccfg.BatchSize = *batch
	ccfg.SeedMostCited = *seedTop
	switch *assignment {
	case "consistent":
		ccfg.Assignment = crawler.AssignConsistent
	case "mod":
		ccfg.Assignment = crawler.AssignMod
	default:
		fmt.Fprintf(os.Stderr, "dwrcrawl: unknown assignment %q\n", *assignment)
		os.Exit(2)
	}

	c := crawler.New(web, ccfg)
	c.SeedFrontPages()

	if *failAgent >= 0 {
		// Run one round, fail the agent, continue — exercising URL
		// re-allocation.
		c.Run()
		c.FailAgent(*failAgent)
	}
	st := c.Run()

	t := metrics.NewTable(fmt.Sprintf("crawl of %d hosts / %d pages with %d agents (%s)",
		*hosts, len(web.Pages), *agents, ccfg.Assignment),
		"metric", "value")
	t.AddRow("crawlable pages", web.CrawlablePages())
	t.AddRow("distinct pages fetched", st.DistinctPages)
	t.AddRow("coverage", st.Coverage)
	t.AddRow("total fetches", st.PagesFetched)
	t.AddRow("duplicate fetches", st.DuplicateFetches)
	t.AddRow("transient retries", st.TransientRetries)
	t.AddRow("permanent failures", st.FetchFailures)
	t.AddRow("robots.txt fetched", st.RobotsFetches)
	t.AddRow("robots-skipped URLs", st.RobotsSkipped)
	t.AddRow("URLs exchanged", st.URLsExchanged)
	t.AddRow("exchange messages", st.ExchangeMessages)
	t.AddRow("exchanges suppressed (seeding)", st.URLsSuppressed)
	t.AddRow("authoritative DNS queries", st.DNSQueries)
	t.AddRow("DNS cache hit ratio", st.DNSHitRatio)
	t.AddRow("bytes downloaded", st.BytesDownloaded)
	t.AddRow("virtual crawl seconds", st.VirtualSeconds)
	t.Render(os.Stdout)

	pa := metrics.NewTable("per-agent fetches", "agent", "pages")
	for i, n := range st.PerAgentFetches {
		pa.AddRow(i, n)
	}
	pa.Render(os.Stdout)

	if *recrawlDay > 0 {
		plain := c.Recrawl(*recrawlDay, false)
		maps := c.Recrawl(*recrawlDay+15, true)
		rc := metrics.NewTable("incremental re-crawl", "pass", "pages", "requests", "304", "refetched", "sitemap-skipped")
		rc.AddRow(fmt.Sprintf("day %d, If-Modified-Since", *recrawlDay),
			plain.Pages, plain.ConditionalRequests, plain.NotModified, plain.Refetched, plain.SkippedViaSitemap)
		rc.AddRow(fmt.Sprintf("day %d, + sitemaps", *recrawlDay+15),
			maps.Pages, maps.ConditionalRequests, maps.NotModified, maps.Refetched, maps.SkippedViaSitemap)
		rc.Render(os.Stdout)
	}
}
