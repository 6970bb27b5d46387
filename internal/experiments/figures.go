package experiments

import (
	"fmt"
	"math/rand"

	"dwr/internal/cluster"
	"dwr/internal/core"
	"dwr/internal/index"
	"dwr/internal/loadgen"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/queueing"
	"dwr/internal/randx"
	"dwr/internal/server"
)

// Table1Inventory (T1) prints the paper's Table 1 with the components of
// this repository implementing each cell, and records full coverage.
func Table1Inventory() *Result {
	r := newResult("T1")
	t := metrics.NewTable("module × issue coverage", "module", "issue", "paper topic", "implemented by")
	covered := 0
	for _, c := range core.Table1() {
		impl := ""
		for i, comp := range c.Components {
			if i > 0 {
				impl += "; "
			}
			impl += comp
		}
		t.AddRow(c.Module, c.Issue, c.PaperTopic, impl)
		if len(c.Components) > 0 {
			covered++
		}
	}
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{"cells": float64(len(core.Table1())), "covered": float64(covered)}
	return r
}

// Figure1Partitioning (F1) reproduces the two slicings of the T×D
// matrix: document (horizontal) and term (vertical) partitioning both
// tile the matrix exactly — no posting lost, none duplicated — while
// inducing very different per-query server contact patterns.
func Figure1Partitioning() *Result {
	f := sharedFixture()
	r := newResult("F1")
	const k = 4
	opts := index.DefaultOptions()

	// Horizontal: split documents.
	dp := partition.RoundRobinDocs(index.DocIDs(f.docs), k)
	de, err := qproc.NewDocEngine(opts, f.docs, dp)
	if err != nil {
		panic(err)
	}
	// Vertical: split terms.
	rng := randx.New(3)
	tp := partition.RandomTerms(rng, f.central.Terms(), k)
	te, err := qproc.NewTermEngine(opts, f.docs, tp)
	if err != nil {
		panic(err)
	}

	// Tiling check: total postings (df summed over terms) must match the
	// central matrix under both slicings.
	centralPostings := 0
	for _, t := range f.central.Terms() {
		centralPostings += f.central.DF(t)
	}
	docPostings := 0
	for p := 0; p < de.K(); p++ {
		ix := de.PartIndex(p)
		for _, t := range ix.Terms() {
			docPostings += ix.DF(t)
		}
	}
	// The term engine owns each term exactly once; count through the
	// partition against the central matrix.
	termPostings := 0
	for t := range tp.Assign {
		termPostings += f.central.DF(t)
	}

	// Contact patterns on the test queries.
	queries := queryTerms(f.test, 500)
	docContacts, termContacts := 0, 0
	for _, q := range queries {
		dq := de.Query(q, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
		tq := te.Query(q, 10)
		docContacts += dq.ServersContacted
		termContacts += tq.ServersContacted
	}
	t := metrics.NewTable("matrix tiling and contact pattern (k=4)",
		"slicing", "postings covered", "avg servers/query")
	t.AddRow("central (reference)", centralPostings, "-")
	t.AddRow("document (horizontal)", docPostings, float64(docContacts)/float64(len(queries)))
	t.AddRow("term (vertical)", termPostings, float64(termContacts)/float64(len(queries)))
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"central_postings": float64(centralPostings),
		"doc_postings":     float64(docPostings),
		"term_postings":    float64(termPostings),
		"doc_avg_servers":  float64(docContacts) / float64(len(queries)),
		"term_avg_servers": float64(termContacts) / float64(len(queries)),
	}
	r.Notes = append(r.Notes,
		"both slicings cover the matrix exactly; document partitioning contacts every server, term partitioning only the owners of the query's terms")
	return r
}

// Figure2BusyLoad (F2) replays one query workload through an 8-server
// document-partitioned system and an 8-server pipelined term-partitioned
// system and reports the per-server busy load — the paper's Figure 2
// (from Webber et al.): flat near the mean for document partitioning,
// strongly imbalanced for pipelined term partitioning.
func Figure2BusyLoad() *Result {
	f := sharedFixture()
	r := newResult("F2")
	const k = 8
	opts := index.DefaultOptions()

	de, err := qproc.NewDocEngine(opts, f.docs, partition.RoundRobinDocs(index.DocIDs(f.docs), k))
	if err != nil {
		panic(err)
	}
	tp := partition.RandomTerms(randx.New(7), f.central.Terms(), k)
	te, err := qproc.NewTermEngine(opts, f.docs, tp)
	if err != nil {
		panic(err)
	}
	queries := queryTerms(f.test, 2000)
	for _, q := range queries {
		de.Query(q, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
		te.Query(q, 10)
	}
	docIm := metrics.NewImbalance(de.BusyMs())
	termIm := metrics.NewImbalance(te.BusyMs())

	t := metrics.NewTable("per-server busy load (normalized to the document system's mean)",
		"server", "doc-partitioned", "bar", "term-partitioned (pipelined)", "bar")
	for s := 0; s < k; s++ {
		d := docIm.Loads[s] / docIm.Mean
		tl := termIm.Loads[s] / termIm.Mean
		t.AddRow(fmt.Sprintf("s%d", s), d, metrics.Bar(d/2.5, 24), tl, metrics.Bar(tl/2.5, 24))
	}
	r.Tables = append(r.Tables, t)
	sum := metrics.NewTable("imbalance summary", "system", "CV", "max/mean")
	sum.AddRow("document", docIm.CV, docIm.MaxOver)
	sum.AddRow("term (pipelined)", termIm.CV, termIm.MaxOver)
	r.Tables = append(r.Tables, sum)
	r.Values = map[string]float64{
		"doc_cv":       docIm.CV,
		"term_cv":      termIm.CV,
		"doc_maxover":  docIm.MaxOver,
		"term_maxover": termIm.MaxOver,
	}
	r.Notes = append(r.Notes, "dashed line of the paper's figure = 1.0 in the normalized columns")
	return r
}

// Figure5Availability (F5) reproduces the BIRN site-unavailability
// histogram: 16 sites observed for 8 months; each bar is the average
// number of sites whose monthly availability fell below the threshold.
func Figure5Availability() *Result {
	r := newResult("F5")
	sites := cluster.NewSites(42, 16, 8*30*24)
	monthly := cluster.MonthlyAvailability(sites, 8)
	thresholds := []float64{1.0, 0.999, 0.995, 0.99, 0.98, 0.95}
	labels := []string{"<100%", "<99.9%", "<99.5%", "<99%", "<98%", "<95%"}
	bars := cluster.UnavailabilityHistogram(monthly, thresholds)
	t := metrics.NewTable("avg #sites with monthly availability below threshold",
		"threshold", "sites", "bar")
	for i := range bars {
		t.AddRow(labels[i], bars[i], metrics.Bar(bars[i]/16, 32))
	}
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"first_bar": bars[0],
		"last_bar":  bars[len(bars)-1],
	}
	r.Notes = append(r.Notes,
		"paper: 'on average 10 [of 16 sites] experience at least one outage in a given month'")
	return r
}

// Figure6Capacity (F6) regenerates the G/G/150 front-end capacity curve:
// the analytic bound c/E[S] across service times, validated on both
// sides of the bound by server.Run, the virtual-time driver of the queue
// dwrserve serves.
func Figure6Capacity() *Result {
	r := newResult("F6")
	const c = 150
	t := metrics.NewTable("capacity bound vs service time",
		"service (ms)", "bound (kqps)", "Kingman wait@95% load (ms)")
	for ms := 10; ms <= 100; ms += 10 {
		es := float64(ms) / 1000
		bound := queueing.CapacityBound(c, es)
		wait := queueing.KingmanWait(0.95*bound, c, es, 1, 1) * 1000
		t.AddRow(ms, bound/1000, wait)
	}
	r.Tables = append(r.Tables, t)

	// DES validation at the 50 ms midpoint, on the queue the front-end
	// serves: one class, no admission, shedding or deadline, and a wait
	// queue as deep as the arrival count, so nothing is shed and the
	// latency above service is exactly the queueing delay.
	const n = 60000
	bound := queueing.CapacityBound(c, 0.05)
	lg := &querylog.Log{Queries: []querylog.Query{{Key: "q", Terms: []string{"q"}}}}
	des := func(seed int64, load float64) (waitMs float64, maxQueue int) {
		src := loadgen.Open(lg, loadgen.OpenConfig{Seed: seed, Rate: load * bound, N: n})
		eng := &serviceStub{rng: randx.New(seed + 1), draw: queueing.LogNormalService(50, 1)}
		rep := server.Run(eng, server.Config{Workers: c, QueueCap: n}, src)
		return rep.Class[server.Interactive].MeanMs - rep.MeanServiceMs, rep.MaxQueueLen
	}
	belowMs, belowQ := des(11, 0.8)
	aboveMs, aboveQ := des(21, 1.2)
	v := metrics.NewTable("DES validation at 50 ms service time (server.Run)",
		"arrival rate", "mean wait (ms)", "max queue")
	v.AddRow("0.8×bound", belowMs, belowQ)
	v.AddRow("1.2×bound", aboveMs, aboveQ)
	r.Tables = append(r.Tables, v)
	r.Values = map[string]float64{
		"bound_10ms_kqps":  queueing.CapacityBound(c, 0.01) / 1000,
		"bound_100ms_kqps": queueing.CapacityBound(c, 0.1) / 1000,
		"below_wait_ms":    belowMs,
		"above_wait_ms":    aboveMs,
	}
	r.Notes = append(r.Notes, "paper: capacity 'drops from 15 to 2 as the average service time goes from 10ms to 100ms'")
	return r
}

// serviceStub is a one-unit engine whose answers cost nothing but a
// virtual latency drawn from draw (ms), so server.Run measures the
// queue alone under a chosen service law.
type serviceStub struct {
	rng  *rand.Rand
	draw func(*rand.Rand) float64
}

func (e *serviceStub) QueryTopK([]string, int) qproc.QueryResult {
	return qproc.QueryResult{LatencyMs: e.draw(e.rng)}
}
func (e *serviceStub) K() int                   { return 1 }
func (e *serviceStub) Stats() qproc.EngineStats { return qproc.EngineStats{} }
func (e *serviceStub) Health() qproc.Health     { return qproc.Health{Units: 1} }
