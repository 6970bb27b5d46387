// Command dwrplan is the analytical model the paper's conclusion asks
// for: "given parameters such as data volume and query throughput, [it]
// can characterize a particular system in terms of response time, index
// size, hardware, network bandwidth, and maintenance cost."
//
// Usage:
//
//	dwrplan                               # the paper's 2007 scenario
//	dwrplan -pages 100e9 -qpd 500e6       # your scenario
//	dwrplan -project-pages 16.7 -project-queries 3   # growth projection
//
// Every flag must be a positive number; anything else exits 2.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"

	"dwr/internal/metrics"
	"dwr/internal/queueing"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main with its arguments, streams and exit status made explicit:
// 0 on success, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("dwrplan", flag.ContinueOnError)
	fs.SetOutput(stderr)
	p := queueing.DefaultParams()
	fs.Float64Var(&p.Pages, "pages", p.Pages, "indexed pages")
	fs.Float64Var(&p.TextBytesPerPage, "bytes-per-page", p.TextBytesPerPage, "text bytes per page")
	fs.Float64Var(&p.IndexRatio, "index-ratio", p.IndexRatio, "index size / text size")
	fs.Float64Var(&p.RAMBytesPerNode, "ram", p.RAMBytesPerNode, "index RAM bytes per machine")
	fs.Float64Var(&p.ClusterQPS, "cluster-qps", p.ClusterQPS, "queries/s one cluster sustains")
	fs.Float64Var(&p.QueriesPerDay, "qpd", p.QueriesPerDay, "queries per day")
	fs.Float64Var(&p.PeakFactor, "peak", p.PeakFactor, "peak-to-average ratio")
	fs.Float64Var(&p.CostPerNodeUSD, "node-cost", p.CostPerNodeUSD, "US$ per machine")
	fs.IntVar(&p.FrontEndThreads, "threads", p.FrontEndThreads, "front-end worker threads (G/G/c)")
	fs.Float64Var(&p.ServiceTimeSec, "service", p.ServiceTimeSec, "front-end mean service time (s)")
	projPages := fs.Float64("project-pages", 1, "page growth factor for a projection row")
	projQueries := fs.Float64("project-queries", 1, "query growth factor for a projection row")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	// A zero or negative input makes the plan meaningless: no threads
	// bound capacity at 0, no service time at +Inf, no cluster capacity
	// yields zero replicas.
	bad := ""
	fs.VisitAll(func(f *flag.Flag) {
		v, err := strconv.ParseFloat(f.Value.String(), 64)
		if bad == "" && (err != nil || !(v > 0) || math.IsInf(v, 1)) {
			bad = f.Name
		}
	})
	if bad != "" {
		fmt.Fprintf(stderr, "dwrplan: -%s must be a positive number, got %s\n", bad, fs.Lookup(bad).Value)
		return 2
	}

	plan := queueing.Derive(p)
	t := metrics.NewTable("derived deployment", "quantity", "value")
	t.AddRow("text volume (TB)", plan.TextBytes/1e12)
	t.AddRow("index volume (TB)", plan.IndexBytes/1e12)
	t.AddRow("machines per cluster", plan.NodesPerCluster)
	t.AddRow("average load (q/s)", plan.AvgQPS)
	t.AddRow("peak load (q/s)", plan.PeakQPS)
	t.AddRow("cluster replicas", plan.Replicas)
	t.AddRow("total machines", plan.TotalNodes)
	t.AddRow("hardware cost (M$)", plan.CostUSD/1e6)
	t.AddRow("front-end capacity bound (q/s)", plan.FrontEndCapacity)
	t.AddRow("mean response at 70% load (ms)", plan.MeanResponseSec*1000)
	t.Render(stdout)

	if *projPages != 1 || *projQueries != 1 {
		proj := queueing.Project(p, *projPages, *projQueries)
		fmt.Fprintln(stdout)
		pt := metrics.NewTable(
			fmt.Sprintf("projection (pages ×%.3g, queries ×%.3g)", *projPages, *projQueries),
			"quantity", "value")
		pt.AddRow("machines per cluster", proj.NodesPerCluster)
		pt.AddRow("cluster replicas", proj.Replicas)
		pt.AddRow("total machines", proj.TotalNodes)
		pt.AddRow("hardware cost (M$)", proj.CostUSD/1e6)
		pt.Render(stdout)
	}
	return 0
}
