package experiments

import (
	"dwr/internal/crawler"
	"dwr/internal/metrics"
	"dwr/internal/simweb"
)

// Claim23FrontierPrioritization (C23) tackles the paper's first
// concluding open problem: "how to efficiently prioritize the crawling
// frontier under a dynamic scenario". The crawler's prioritized frontier
// reorders dynamically by accumulated citations (an OPIC-flavoured
// signal); quality is the fraction of total in-degree mass captured in
// each prefix of the crawl, compared against discovery-order (BFS)
// crawling.
func Claim23FrontierPrioritization() *Result {
	r := newResult("C23")
	wcfg := simweb.DefaultConfig()
	wcfg.Hosts = 150
	web := simweb.New(wcfg)

	// Seed a handful of linked pages so discovery order matters.
	var seeds []string
	for _, p := range web.Pages {
		if !p.Private && len(p.Links) >= 5 {
			seeds = append(seeds, web.URL(p.ID))
			if len(seeds) == 8 {
				break
			}
		}
	}
	run := func(priority bool) []int {
		cfg := crawler.DefaultConfig()
		cfg.Agents = 1
		cfg.PriorityFrontier = priority
		c := crawler.New(web, cfg)
		c.Seed(seeds)
		c.Run()
		return c.FetchOrder()
	}
	fifo := run(false)
	prio := run(true)

	massAt := func(order []int, frac float64) float64 {
		n := int(frac * float64(len(order)))
		sum, total := 0, 0
		for i, pid := range order {
			d := web.Pages[pid].InDegree
			total += d
			if i < n {
				sum += d
			}
		}
		if total == 0 {
			return 0
		}
		return float64(sum) / float64(total)
	}

	t := metrics.NewTable("fraction of total in-degree mass captured by crawl prefix",
		"prefix", "discovery order (BFS)", "prioritized frontier")
	for _, frac := range []float64{0.1, 0.25, 0.5, 0.75} {
		t.AddRow(metrics.FormatFloat(frac*100)+"%", massAt(fifo, frac), massAt(prio, frac))
	}
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"fifo_at25": massAt(fifo, 0.25),
		"prio_at25": massAt(prio, 0.25),
		"fifo_len":  float64(len(fifo)),
		"prio_len":  float64(len(prio)),
	}
	r.Notes = append(r.Notes,
		"paper (concluding remarks): open problems include 'how to efficiently prioritize the crawling frontier under a dynamic scenario'")
	return r
}
