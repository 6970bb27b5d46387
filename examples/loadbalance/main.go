// loadbalance reproduces the Figure 2 phenomenon interactively: the same
// query workload replayed through a document-partitioned system and a
// pipelined term-partitioned system over 8 servers, with per-server busy
// load printed as bars — then shows Moffat-style bin-packing repairing
// the term-partitioned imbalance.
//
//	go run ./examples/loadbalance
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/simweb"
)

func main() {
	// Corpus and query log.
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 150
	web := simweb.New(wcfg)
	docs := core.WebDocs(web)
	lg := querylog.Generate(web, querylog.DefaultConfig())
	fmt.Printf("corpus: %d documents; workload: %d queries\n\n", len(docs), len(lg.Queries))

	ids := index.DocIDs(docs)
	cIx, err := index.Build(index.DefaultOptions(), docs)
	if err != nil {
		log.Fatal(err)
	}

	const k = 8
	replay := func(name string, busy []float64) {
		im := metrics.NewImbalance(busy)
		fmt.Printf("%s (CV %.2f, max/mean %.2f):\n", name, im.CV, im.MaxOver)
		for s, l := range im.Loads {
			fmt.Printf("  s%d %6.0fms %s\n", s, l, metrics.Bar(l/(2.5*im.Mean), 40))
		}
		fmt.Println()
	}

	// Document-partitioned: flat busy load. Figure 2 compares unpruned
	// engines, so the broker evaluates exhaustively in one wave.
	de, err := qproc.NewDocEngine(index.DefaultOptions(), docs, partition.RoundRobinDocs(ids, k),
		qproc.WithPruning(rank.PruneNone), qproc.WithThresholdSharing(false))
	if err != nil {
		log.Fatal(err)
	}
	for _, q := range lg.Queries[:3000] {
		de.Query(q.Terms, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
	}
	replay("document-partitioned", de.BusyMs())

	// The same replay through the serial broker and the parallel
	// scatter-gather: answers and busy-load accounting are identical at
	// any width; only wall-clock time changes with the core count. The
	// serial run is the same engine at GOMAXPROCS 1.
	timeReplay := func(procs int) time.Duration {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		t0 := time.Now()
		for _, q := range lg.Queries[:3000] {
			de.Query(q.Terms, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
		}
		return time.Since(t0)
	}
	cores := runtime.GOMAXPROCS(0)
	serialT := timeReplay(1)
	parallelT := timeReplay(cores)
	fmt.Printf("broker wall-clock (%d cores): serial %v, parallel %v (%.2fx)\n\n",
		cores, serialT.Round(time.Millisecond),
		parallelT.Round(time.Millisecond), float64(serialT)/float64(parallelT))

	// Term-partitioned, random assignment: the Figure 2 imbalance.
	run := func(tp partition.TermPartition) []float64 {
		te, err := qproc.NewTermEngine(index.DefaultOptions(), docs, tp)
		if err != nil {
			log.Fatal(err)
		}
		for _, q := range lg.Queries[:3000] {
			te.Query(q.Terms, 10)
		}
		return te.BusyMs()
	}
	replay("term-partitioned, random assignment",
		run(partition.RandomTerms(randx.New(7), cIx.Terms(), k)))

	// Term-partitioned with Moffat bin-packing: weight = query frequency
	// × posting length, heaviest term to the lightest bin.
	qf := lg.TermWeights()
	weight := func(t string) float64 { return float64(qf[t]+1) * float64(cIx.DF(t)) }
	replay("term-partitioned, bin-packed by query-log weight",
		run(partition.BinPackTerms(cIx.Terms(), weight, k)))
}
