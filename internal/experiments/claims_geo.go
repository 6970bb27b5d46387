package experiments

import (
	"dwr/internal/crawler"
	"dwr/internal/metrics"
	"dwr/internal/simweb"
)

// Claim18GeoCrawling (C18) reproduces the §3 external-factors point the
// paper draws from Exposto et al.: distributing crawlers across
// geographic locations and assigning hosts to same-region agents keeps
// download traffic off the wide-area network, at no loss of coverage.
func Claim18GeoCrawling() *Result {
	r := newResult("C18")
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 200
	web := simweb.New(wcfg)

	run := func(policy crawler.AssignmentPolicy) crawler.Stats {
		cfg := crawler.DefaultConfig()
		cfg.Agents = 6
		cfg.Regions = 3
		cfg.Assignment = policy
		c := crawler.New(web, cfg)
		c.SeedFrontPages()
		return c.Run()
	}
	blind := run(crawler.AssignMod)
	affinity := run(crawler.AssignRegionAffinity)

	t := metrics.NewTable("download traffic by assignment policy",
		"assignment", "bytes downloaded", "WAN (cross-region) bytes", "WAN fraction", "coverage")
	t.AddRow("mod-hash (region-blind)", blind.BytesDownloaded, blind.WANBytes,
		float64(blind.WANBytes)/float64(blind.BytesDownloaded), blind.Coverage)
	t.AddRow("region-affinity", affinity.BytesDownloaded, affinity.WANBytes,
		float64(affinity.WANBytes)/float64(affinity.BytesDownloaded), affinity.Coverage)
	r.Tables = append(r.Tables, t)

	// Load balance check: affinity must not starve agents.
	im := metrics.NewImbalance(intsToFloats(affinity.PerAgentFetches))
	bal := metrics.NewTable("per-agent fetch balance under region affinity", "metric", "value")
	bal.AddRow("max/mean", im.MaxOver)
	bal.AddRow("CV", im.CV)
	r.Tables = append(r.Tables, bal)

	r.Values = map[string]float64{
		"blind_wan_frac":    float64(blind.WANBytes) / float64(blind.BytesDownloaded),
		"affinity_wan_frac": float64(affinity.WANBytes) / float64(affinity.BytesDownloaded),
		"affinity_coverage": affinity.Coverage,
		"affinity_maxover":  im.MaxOver,
	}
	r.Notes = append(r.Notes,
		"paper: 'we can carefully distribute Web crawlers across distinct geographic locations ... including network costs at different locations and the cost of sending data back to the search engine'")
	return r
}

func intsToFloats(in []int) []float64 {
	out := make([]float64, len(in))
	for i, v := range in {
		out[i] = float64(v)
	}
	return out
}
