// Command dwrsearch builds a complete distributed Web retrieval engine —
// synthetic Web, distributed crawl, partitioned index — and answers
// queries against it, either from the command line or interactively from
// stdin.
//
// Usage:
//
//	dwrsearch -partitions 8 -strategy query-driven "some query terms"
//	dwrsearch            # interactive: one query per line
//
// -partitions, -hosts and -k must be positive and -select and -cachecap
// not negative; anything else exits 2.
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"dwr/internal/core"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit:
// 0 on success, 1 when the engine cannot be built, 2 on a usage error.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwrsearch", flag.ContinueOnError)
	fs.SetOutput(stderr)
	partitions := fs.Int("partitions", 4, "query processors")
	strategy := fs.String("strategy", "round-robin", "partitioning: random | round-robin | k-means | query-driven")
	selectN := fs.Int("select", 0, "contact only the best-N partitions per query (0 = all)")
	k := fs.Int("k", 10, "results per query")
	phrase := fs.Bool("phrase", false, "treat the query as an exact phrase")
	hosts := fs.Int("hosts", 80, "hosts in the synthetic web")
	seed := fs.Int64("seed", 1, "random seed")
	cacheCap := fs.Int("cachecap", 0, "broker result-cache capacity in entries (0 = no result cache)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	// The engine would quietly substitute a default for any of these.
	for _, c := range []struct {
		name string
		v    int
		min  int
	}{{"partitions", *partitions, 1}, {"hosts", *hosts, 1}, {"k", *k, 1}, {"select", *selectN, 0}, {"cachecap", *cacheCap, 0}} {
		if c.v < c.min {
			fmt.Fprintf(stderr, "dwrsearch: -%s must be at least %d, got %d\n", c.name, c.min, c.v)
			return 2
		}
	}

	cfg := core.DefaultConfig()
	cfg.Seed = *seed
	cfg.Web.Seed = *seed
	cfg.Web.Hosts = *hosts
	cfg.Partitions = *partitions
	cfg.Cache = core.CacheConfig{Capacity: *cacheCap}
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
		fmt.Fprintf(stderr, "dwrsearch: unknown strategy %q\n", *strategy)
		return 2
	}

	fmt.Fprintf(stderr, "building engine (%d hosts, %d partitions, %s partitioning)...\n",
		*hosts, *partitions, cfg.Strategy)
	engine, err := core.Build(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "dwrsearch: %v\n", err)
		return 1
	}
	fmt.Fprintf(stderr, "crawled %d pages (coverage %.1f%%), indexed %d documents\n",
		engine.CrawlInfo.DistinctPages, engine.CrawlInfo.Coverage*100, len(engine.Docs))

	opts := core.SearchOptions{K: *k, SelectN: *selectN, Phrase: *phrase}
	query := strings.Join(fs.Args(), " ")
	if query != "" {
		printResults(stdout, engine, query, opts)
		return 0
	}

	// Interactive loop. Suggest a few real terms so the user can see hits.
	fmt.Fprintf(stderr, "example terms from the collection: %s\n",
		strings.Join(engine.Docs[0].Terms[:min(5, len(engine.Docs[0].Terms))], " "))
	sc := bufio.NewScanner(stdin)
	fmt.Fprint(stdout, "query> ")
	for sc.Scan() {
		q := strings.TrimSpace(sc.Text())
		if q == "" || q == "exit" || q == "quit" {
			break
		}
		printResults(stdout, engine, q, opts)
		fmt.Fprint(stdout, "query> ")
	}
	return 0
}

func printResults(w io.Writer, e *core.Engine, query string, opts core.SearchOptions) {
	rs := e.Search(query, opts)
	if len(rs) == 0 {
		fmt.Fprintln(w, "no results")
		return
	}
	for i, r := range rs {
		fmt.Fprintf(w, "%2d. %-40s doc=%d score=%.4f\n", i+1, r.URL, r.Doc, r.Score)
	}
}
