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
package main

import (
	"flag"
	"fmt"
	"os"

	"dwr/internal/metrics"
	"dwr/internal/queueing"
)

func main() {
	p := queueing.DefaultParams()
	pages := flag.Float64("pages", p.Pages, "indexed pages")
	bytesPerPage := flag.Float64("bytes-per-page", p.TextBytesPerPage, "text bytes per page")
	indexRatio := flag.Float64("index-ratio", p.IndexRatio, "index size / text size")
	ram := flag.Float64("ram", p.RAMBytesPerNode, "index RAM bytes per machine")
	clusterQPS := flag.Float64("cluster-qps", p.ClusterQPS, "queries/s one cluster sustains")
	qpd := flag.Float64("qpd", p.QueriesPerDay, "queries per day")
	peak := flag.Float64("peak", p.PeakFactor, "peak-to-average ratio")
	cost := flag.Float64("node-cost", p.CostPerNodeUSD, "US$ per machine")
	threads := flag.Int("threads", p.FrontEndThreads, "front-end worker threads (G/G/c)")
	service := flag.Float64("service", p.ServiceTimeSec, "front-end mean service time (s)")
	projPages := flag.Float64("project-pages", 1, "page growth factor for a projection row")
	projQueries := flag.Float64("project-queries", 1, "query growth factor for a projection row")
	flag.Parse()

	p.Pages = *pages
	p.TextBytesPerPage = *bytesPerPage
	p.IndexRatio = *indexRatio
	p.RAMBytesPerNode = *ram
	p.ClusterQPS = *clusterQPS
	p.QueriesPerDay = *qpd
	p.PeakFactor = *peak
	p.CostPerNodeUSD = *cost
	p.FrontEndThreads = *threads
	p.ServiceTimeSec = *service

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
	t.Render(os.Stdout)

	if *projPages != 1 || *projQueries != 1 {
		proj := queueing.Project(p, *projPages, *projQueries)
		fmt.Println()
		pt := metrics.NewTable(
			fmt.Sprintf("projection (pages ×%.3g, queries ×%.3g)", *projPages, *projQueries),
			"quantity", "value")
		pt.AddRow("machines per cluster", proj.NodesPerCluster)
		pt.AddRow("cluster replicas", proj.Replicas)
		pt.AddRow("total machines", proj.TotalNodes)
		pt.AddRow("hardware cost (M$)", proj.CostUSD/1e6)
		pt.Render(os.Stdout)
	}
}
