package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"io"

	"dwr/internal/cluster"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/randx"
	"dwr/internal/rank"
)

// federateConfig sizes the federated-mediation scenario.
type federateConfig struct {
	Seed    int64 `json:"seed"`
	Sites   int   `json:"sites"`
	PerSite int   `json:"per_site_docs"`
	Queries int   `json:"queries"`
}

var federateScenario = define("federate",
	"federated mediation under a rolling outage: per-query collection selection vs exhaustive fan-out; recall, sites touched, WAN bytes",
	federateConfig{Seed: 42, Sites: 8, PerSite: 300, Queries: 400}, measureFederate)

// measureFederate measures collection selection on the serving path,
// once with the mediator deciding per query which sites to contact and
// once with the classic exhaustive fan-out (sites 1, 4, ... are down
// hours [6,12)). Every value is a counter: latencies are virtual WAN
// milliseconds. Each pass is replayed and must fingerprint identically,
// no query may fail while healthy fallback sites exist, and the
// mediated pass must answer at least half the queries touching under
// half the sites at Recall@10 >= 0.95.
func measureFederate(_ io.Writer, c federateConfig) ([]row, error) {
	if c.Sites < 1 || c.PerSite < 1 || c.Queries < 1 {
		return nil, errors.New("sites, per_site_docs and queries must be positive")
	}
	var rows []row
	for _, mode := range []string{"fullfanout", "mediated"} {
		r, fp1, err := federatePass(c, mode)
		if err != nil {
			return nil, err
		}
		_, fp2, err := federatePass(c, mode)
		if err != nil {
			return nil, err
		}
		r.Invariants = map[string]bool{
			"replay_identical": fp1 == fp2,
			"no_failures":      r.Counters["failures"] == 0,
		}
		if mode == "mediated" {
			r.Invariants["frac_under_half_good>=0.5"] = r.Counters["frac_under_half_good"] >= 0.5
			r.Invariants["mean_recall_at_10>=0.95"] = r.Counters["mean_recall_at_10"] >= 0.95
		}
		rows = append(rows, r)
	}
	return rows, nil
}

// federateWorkload builds the seeded topical federation corpus (site s
// owns the "s<s>w*" vocabulary; a fifth of all words come from a shared
// pool every site holds) and the mixed query stream.
func federateWorkload(o federateConfig) ([][]index.Doc, [][]string) {
	rng := randx.New(o.Seed)
	siteDocs := make([][]index.Doc, o.Sites)
	for s := 0; s < o.Sites; s++ {
		docs := make([]index.Doc, o.PerSite)
		for d := 0; d < o.PerSite; d++ {
			terms := make([]string, 20+rng.Intn(40))
			for j := range terms {
				if rng.Intn(5) == 0 {
					terms[j] = fmt.Sprintf("shared%02d", rng.Intn(30))
				} else {
					terms[j] = fmt.Sprintf("s%dw%02d", s, rng.Intn(60))
				}
			}
			docs[d] = index.Doc{Ext: s*100000 + d, Terms: terms}
		}
		siteDocs[s] = docs
	}
	queries := make([][]string, o.Queries)
	for i := range queries {
		if rng.Intn(3) == 0 {
			queries[i] = []string{fmt.Sprintf("shared%02d", rng.Intn(30))}
			continue
		}
		s := rng.Intn(o.Sites)
		q := []string{fmt.Sprintf("s%dw%02d", s, rng.Intn(60))}
		if rng.Intn(2) == 0 {
			q = append(q, fmt.Sprintf("s%dw%02d", s, rng.Intn(60)))
		}
		queries[i] = q
	}
	return siteDocs, queries
}

// federatePass builds a fresh federation and drives the full query
// stream through it once, returning the measured row and a fingerprint
// of every answer and counter (replays must match it exactly).
func federatePass(o federateConfig, mode string) (row, uint64, error) {
	siteDocs, queries := federateWorkload(o)
	engines := make([]*qproc.DocEngine, o.Sites)
	for s := 0; s < o.Sites; s++ {
		e, err := qproc.NewDocEngine(index.DefaultOptions(), siteDocs[s],
			partition.RoundRobinDocs(index.DocIDs(siteDocs[s]), 2))
		if err != nil {
			return row{}, 0, err
		}
		engines[s] = e
	}
	var msOpts []qproc.Option
	if mode == "mediated" {
		msOpts = append(msOpts, qproc.WithMediator(2, 0.3))
	}
	ms := qproc.NewMultiSite(cluster.NewNetwork(o.Seed, o.Sites), qproc.RouteGeo, msOpts...)
	for s, e := range engines {
		site := qproc.NewSite(s, s, e, 64, 1_000_000)
		if s%3 == 1 {
			// Rolling multi-site outage: every third site is dark for a
			// quarter of each virtual day.
			site.Outages = []cluster.Outage{{Start: 6, End: 12}}
		}
		ms.Sites = append(ms.Sites, site)
	}

	h := fnv.New64a()
	var lat []float64
	var bytes int64
	var contacted, skipped, underHalf, underHalfGood, fullFan, failures, retries int
	var recallSum float64
	qrng := randx.New(o.Seed + 1)
	for i, q := range queries {
		at := float64(i % 24)
		region := qrng.Intn(o.Sites)
		r := ms.QueryFederated(q, qproc.NormalizeQueryKey(q), region, at, 10)
		if r.Failed {
			failures++
		}
		retries += r.Retries
		contacted += r.SitesContacted
		skipped += r.SitesSkipped
		bytes += r.BytesTransferred
		lat = append(lat, r.LatencyMs)
		rec := rank.Recall(r.Results, ms.QueryExhaustiveResults(q, at, 10))
		recallSum += rec
		if r.FullFanout {
			fullFan++
		}
		if 2*r.SitesContacted < o.Sites {
			underHalf++
			if rec >= 0.95 {
				underHalfGood++
			}
		}
		fmt.Fprintf(h, "q=%v at=%g region=%d cached=%v full=%v contacted=%d skipped=%d failed=%v degraded=%v lat=%.17g rec=%.17g\n",
			q, at, region, r.FromCache, r.FullFanout, r.SitesContacted, r.SitesSkipped,
			r.Failed, r.Degraded, r.LatencyMs, rec)
		for _, res := range r.Results {
			fmt.Fprintf(h, "%d:%.17g ", res.Doc, res.Score)
		}
		fmt.Fprintln(h)
	}
	st := ms.Stats()
	fmt.Fprintf(h, "sel=%s\n", st.Selection.String())

	n := float64(len(queries))
	p50, p99 := medianAndP99(lat)
	return row{Name: mode, Counters: map[string]float64{
		"queries":                   n,
		"frac_under_half":           float64(underHalf) / n,     // touched < 50% of sites
		"frac_under_half_good":      float64(underHalfGood) / n, // ...at recall@10 >= 0.95
		"frac_full_fanout":          float64(fullFan) / n,
		"mean_recall_at_10":         recallSum / n,
		"sites_contacted_per_query": float64(contacted) / n,
		"sites_skipped_per_query":   float64(skipped) / n,
		"bytes_per_query":           float64(bytes) / n,
		"latency_p50_ms":            p50,
		"latency_p99_ms":            p99,
		"failures":                  float64(failures),
		"retries":                   float64(retries),
	}}, h.Sum64(), nil
}
