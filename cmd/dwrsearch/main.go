// Command dwrsearch builds a complete distributed Web retrieval engine —
// synthetic Web, distributed crawl, partitioned index — and answers
// queries against it, either from the command line or interactively from
// stdin.
//
// Usage:
//
//	dwrsearch -partitions 8 -strategy query-driven "some query terms"
//	dwrsearch            # interactive: one query per line
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"dwr/internal/core"
	"dwr/internal/qproc"
)

func main() {
	partitions := flag.Int("partitions", 4, "query processors")
	strategy := flag.String("strategy", "round-robin", "partitioning: random | round-robin | k-means | query-driven")
	selectN := flag.Int("select", 0, "contact only the best-N partitions per query (0 = all)")
	k := flag.Int("k", 10, "results per query")
	phrase := flag.Bool("phrase", false, "treat the query as an exact phrase")
	hosts := flag.Int("hosts", 80, "hosts in the synthetic web")
	seed := flag.Int64("seed", 1, "random seed")
	workers := flag.Int("workers", 0, "broker fan-out and build concurrency (0 = GOMAXPROCS, 1 = serial); results are identical at any value")
	cacheCap := flag.Int("cachecap", 0, "broker result-cache capacity in entries (0 = no result cache)")
	cacheTTL := flag.Int("cachettl", 0, "result-cache entry TTL in queries (0 = never expires)")
	cacheShards := flag.Int("cacheshards", 0, "result-cache lock shards (0 = 8)")
	cachePolicy := flag.String("cachepolicy", "sdc", "result-cache replacement: lru | lfu | sdc (sdc warms its static set from a query-log sample)")
	flag.Parse()

	qproc.SetDefaultOptions(qproc.WithWorkers(*workers))
	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Web.Seed = *seed
	cfg.Web.Hosts = *hosts
	cfg.Partitions = *partitions
	cfg.Workers = *workers
	policy, err := qproc.ParseCachePolicy(*cachePolicy)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwrsearch: %v\n", err)
		os.Exit(2)
	}
	cfg.Cache = core.CacheConfig{
		Capacity:   *cacheCap,
		Shards:     *cacheShards,
		TTLQueries: *cacheTTL,
		Policy:     policy,
	}
	switch *strategy {
	case "random":
		cfg.Strategy = core.PartitionRandom
	case "round-robin":
		cfg.Strategy = core.PartitionRoundRobin
	case "k-means":
		cfg.Strategy = core.PartitionKMeans
	case "query-driven":
		cfg.Strategy = core.PartitionQueryDriven
	default:
		fmt.Fprintf(os.Stderr, "dwrsearch: unknown strategy %q\n", *strategy)
		os.Exit(2)
	}

	fmt.Fprintf(os.Stderr, "building engine (%d hosts, %d partitions, %s partitioning)...\n",
		*hosts, *partitions, cfg.Strategy)
	engine, err := core.Build(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dwrsearch: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "crawled %d pages (coverage %.1f%%), indexed %d documents\n",
		engine.CrawlInfo.DistinctPages, engine.CrawlInfo.Coverage*100, len(engine.Docs))

	query := strings.Join(flag.Args(), " ")
	if query != "" {
		printResults(engine, query, *k, *selectN, *phrase)
		return
	}

	// Interactive loop. Suggest a few real terms so the user can see hits.
	fmt.Fprintf(os.Stderr, "example terms from the collection: %s\n",
		strings.Join(engine.Docs[0].Terms[:min(5, len(engine.Docs[0].Terms))], " "))
	sc := bufio.NewScanner(os.Stdin)
	fmt.Print("query> ")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" || q == "exit" || q == "quit" {
			break
		}
		printResults(engine, q, *k, *selectN, *phrase)
		fmt.Print("query> ")
	}
}

func printResults(e *core.Engine, query string, k, selectN int, phrase bool) {
	rs := e.Search(query, core.SearchOptions{K: k, SelectN: selectN, Phrase: phrase})
	if len(rs) == 0 {
		fmt.Println("no results")
		return
	}
	for i, r := range rs {
		fmt.Printf("%2d. %-40s doc=%d score=%.4f\n", i+1, r.URL, r.Doc, r.Score)
	}
}
