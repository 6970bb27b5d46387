// Command dwrcrawl runs a distributed crawl of a synthetic Web and
// prints the crawl report: coverage, politeness-bounded virtual
// duration, URL-exchange traffic, DNS load, failures, and the
// incremental re-crawl economics.
//
// Usage:
//
//	dwrcrawl -hosts 300 -agents 8 -assignment consistent -batch 64
//
// -hosts, -agents and -batch must be positive, -seed-most-cited and
// -recrawl-day not negative, and -fail-agent -1 or an agent ID below
// -agents; anything else exits 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"dwr/internal/crawler"
	"dwr/internal/metrics"
	"dwr/internal/simweb"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit:
// 0 on success, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwrcrawl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	hosts := fs.Int("hosts", 200, "number of Web servers to generate")
	agents := fs.Int("agents", 4, "crawling agents")
	assignment := fs.String("assignment", "consistent", "URL assignment: consistent | mod")
	batch := fs.Int("batch", 64, "URLs per exchange message")
	seedTop := fs.Int("seed-most-cited", 100, "most-cited URLs pre-seeded into all agents (0 = off)")
	seed := fs.Int64("seed", 1, "random seed")
	failAgent := fs.Int("fail-agent", -1, "fail this agent after its first drain (-1 = none)")
	recrawlDay := fs.Int("recrawl-day", 15, "virtual day of the incremental re-crawl (0 = skip)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The crawler would quietly substitute a default for any of these.
	for _, c := range []struct {
		name string
		v    int
		min  int
	}{{"hosts", *hosts, 1}, {"agents", *agents, 1}, {"batch", *batch, 1}, {"seed-most-cited", *seedTop, 0}, {"recrawl-day", *recrawlDay, 0}} {
		if c.v < c.min {
			fmt.Fprintf(stderr, "dwrcrawl: -%s must be at least %d, got %d\n", c.name, c.min, c.v)
			return 2
		}
	}
	if *failAgent < -1 || *failAgent >= *agents {
		fmt.Fprintf(stderr, "dwrcrawl: -fail-agent must be -1 or an agent ID below %d, got %d\n", *agents, *failAgent)
		return 2
	}

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
		fmt.Fprintf(stderr, "dwrcrawl: unknown assignment %q\n", *assignment)
		return 2
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
	t.Render(stdout)

	pa := metrics.NewTable("per-agent fetches", "agent", "pages")
	for i, n := range st.PerAgentFetches {
		pa.AddRow(i, n)
	}
	pa.Render(stdout)

	if *recrawlDay > 0 {
		plain := c.Recrawl(*recrawlDay, false)
		maps := c.Recrawl(*recrawlDay+15, true)
		rc := metrics.NewTable("incremental re-crawl", "pass", "pages", "requests", "304", "refetched", "sitemap-skipped")
		rc.AddRow(fmt.Sprintf("day %d, If-Modified-Since", *recrawlDay),
			plain.Pages, plain.ConditionalRequests, plain.NotModified, plain.Refetched, plain.SkippedViaSitemap)
		rc.AddRow(fmt.Sprintf("day %d, + sitemaps", *recrawlDay+15),
			maps.Pages, maps.ConditionalRequests, maps.NotModified, maps.Refetched, maps.SkippedViaSitemap)
		rc.Render(stdout)
	}
	return 0
}
