// multisite_failover demonstrates the Figure 3 system of Section 5:
// three sites in different regions, each a full query-processing
// replica with a result cache, connected by a WAN. Queries route to the
// nearest site; when a site fails they fail over across the WAN; when
// every replica of a result's processors is gone, stale cached results
// mask the outage.
//
//	go run ./examples/multisite_failover
package main

import (
	"fmt"
	"log"

	"dwr/internal/cluster"
	"dwr/internal/core"
	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
)

func main() {
	// Build one engine's corpus via the full pipeline, then replicate it
	// across three sites.
	cfg := core.DefaultConfig()
	cfg.Web.Hosts = 60
	engine, err := core.Build(cfg)
	if err != nil {
		log.Fatal(err)
	}
	ids := index.DocIDs(engine.Docs)

	m := qproc.NewMultiSite(cluster.NewNetwork(1, 3), qproc.RouteGeo)
	m.CacheTTL = 1 // results stay fresh for one virtual hour
	m.OffloadThreshold = 0.7
	// Each site's engine carries a deterministic fault injector so
	// processor failures can be staged (and healed) mid-run.
	var injs []*faultsim.Injector
	for s := 0; s < 3; s++ {
		inj := faultsim.New(int64(100 + s))
		injs = append(injs, inj)
		dp := partition.RoundRobinDocs(ids, 4)
		e, err := qproc.NewDocEngine(index.DefaultOptions(), engine.Docs, dp,
			qproc.WithFaultPolicy(qproc.DefaultFaultPolicy()),
			qproc.WithInjector(inj))
		if err != nil {
			log.Fatal(err)
		}
		m.Sites = append(m.Sites, qproc.NewSite(s, s, e, 1024, 0))
	}

	terms := engine.Docs[0].Terms[:2]
	key := terms[0] + " " + terms[1]

	// Normal operation: the client in region 0 is served by site 0.
	r := m.Submit(terms, key, 0, 1.0, 5)
	fmt.Printf("t=1h  normal:    coordinator=site%d executor=site%d latency=%.1fms results=%d\n",
		r.Coordinator, r.Executor, r.LatencyMs, len(r.Results))

	// Repeat query: served from site 0's cache.
	r = m.Submit(terms, key, 0, 1.5, 5)
	fmt.Printf("t=1.5h cached:    fromCache=%v latency=%.1fms\n", r.FromCache, r.LatencyMs)

	// Site 0 goes down for hours 2..6: the query fails over to the next
	// region across the WAN (higher latency, same results).
	m.Sites[0].Outages = []cluster.Outage{{Start: 2, End: 6}}
	r = m.Submit(terms, key, 0, 3.0, 5)
	fmt.Printf("t=3h  failover:  coordinator=site%d executor=site%d latency=%.1fms results=%d\n",
		r.Coordinator, r.Executor, r.LatencyMs, len(r.Results))

	// Catastrophe at hour 4: sites 1 and 2 also lose their query
	// processors. Only site 0's coordinator is... also down. At hour 6
	// site 0's coordinator is back but every query processor across the
	// system is dead — crashes injected on every partition replica via
	// the fault simulator — and the stale cache answers.
	m.Sites[1].Outages = []cluster.Outage{{Start: 4, End: 24}}
	m.Sites[2].Outages = []cluster.Outage{{Start: 4, End: 24}}
	for p := 0; p < m.Sites[0].Engine.K(); p++ {
		injs[0].Unit(p, faultsim.Spec{Crash: true})
	}
	h := m.Sites[0].Engine.Health()
	fmt.Printf("t=6h  health:    site 0 engine %d/%d partitions up, down=%v\n",
		h.Live(), h.Units, h.Down)
	r = m.Submit(terms, key, 0, 6.5, 5)
	fmt.Printf("t=6.5h outage:    fromCache=%v stale=%v results=%d (cached results mask the outage)\n",
		r.FromCache, r.Stale, len(r.Results))

	// Incremental query processing: all sites answer, fastest first.
	// Healing = clearing the injected crash specs.
	for p := 0; p < m.Sites[0].Engine.K(); p++ {
		injs[0].ClearUnit(p)
	}
	m.Sites[1].Outages, m.Sites[2].Outages = nil, nil
	fmt.Println("\nincremental processing (batches as sites answer):")
	for _, b := range m.QueryIncremental(terms, 0, 8, 5) {
		fmt.Printf("  after %6.1fms: %d results (site %d answered)\n",
			b.AfterMs, len(b.Results), b.Site)
	}
}
