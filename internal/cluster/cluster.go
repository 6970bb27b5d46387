// Package cluster provides the simulated multi-site distributed system
// underneath the query-processing experiments of Section 5: sites in
// geographic regions connected by a wide-area network, LAN-connected
// servers within a site, per-link latency models, message and byte
// accounting, and a renewal-process failure injector whose output
// reproduces the availability behaviour of Figure 5 (the BIRN multi-site
// measurements).
//
// Time is virtual throughout: latencies are in milliseconds of simulated
// time, outages in hours, so month-scale availability studies run in
// milliseconds of wall time.
package cluster

import (
	"math/rand"
	"sort"

	"dwr/internal/randx"
)

// Network models communication latency. Within a site messages take
// LAN-scale delays (hundreds of microseconds, per the paper); across
// sites they take WAN-scale delays (tens to hundreds of milliseconds)
// that grow with region distance.
type Network struct {
	LANMeanMs float64 // mean intra-site latency
	WANBaseMs float64 // base inter-site latency (same region)
	WANPerHop float64 // added per unit of region distance
	Regions   int
	rng       *rand.Rand
}

// NewNetwork creates a network model with typical values: 0.3 ms LAN,
// 40 ms WAN base, +35 ms per region distance.
func NewNetwork(seed int64, regions int) *Network {
	return &Network{
		LANMeanMs: 0.3,
		WANBaseMs: 40,
		WANPerHop: 35,
		Regions:   regions,
		rng:       randx.New(seed),
	}
}

// Latency draws the latency in milliseconds of one message between two
// sites' regions.
func (n *Network) Latency(fromRegion, toRegion int) float64 {
	if fromRegion == toRegion {
		return n.LANMeanMs * randx.LogNormal(n.rng, 0, 0.3)
	}
	d := fromRegion - toRegion
	if d < 0 {
		d = -d
	}
	base := n.WANBaseMs + n.WANPerHop*float64(d)
	return base * randx.LogNormal(n.rng, 0, 0.2)
}

// Outage is one interval during which a site is unreachable, in hours
// from the start of the observation.
type Outage struct {
	Start, End float64
}

// FailureModel is a renewal process for site outages: exponential time
// between failures, log-normal repair durations (short blips are common,
// long outages rare — the heavy tail that makes Figure 5's sub-99% bars
// non-empty).
type FailureModel struct {
	MTBFHours   float64 // mean time between failures
	RepairMu    float64 // log-normal location of repair hours
	RepairSigma float64 // log-normal scale of repair hours
}

// DefaultFailureModel matches the BIRN-like behaviour of Figure 5: a
// failure roughly every 2–3 weeks and repairs averaging a few hours with
// a heavy tail.
func DefaultFailureModel() FailureModel {
	return FailureModel{MTBFHours: 400, RepairMu: 0.7, RepairSigma: 1.2}
}

// GenOutages draws the outage intervals of one site over horizonHours.
func GenOutages(rng *rand.Rand, m FailureModel, horizonHours float64) []Outage {
	var out []Outage
	t := randx.Exp(rng, m.MTBFHours)
	for t < horizonHours {
		repair := randx.LogNormal(rng, m.RepairMu, m.RepairSigma)
		end := t + repair
		if end > horizonHours {
			end = horizonHours
		}
		out = append(out, Outage{Start: t, End: end})
		t = end + randx.Exp(rng, m.MTBFHours)
	}
	return out
}

// Availability returns the fraction of [from, to) during which a site
// with the given outages was up.
func Availability(outages []Outage, from, to float64) float64 {
	if to <= from {
		return 1
	}
	down := 0.0
	for _, o := range outages {
		s, e := o.Start, o.End
		if s < from {
			s = from
		}
		if e > to {
			e = to
		}
		if e > s {
			down += e - s
		}
	}
	return 1 - down/(to-from)
}

// UpAt reports whether a site with the given outages is up at hour t.
func UpAt(outages []Outage, t float64) bool {
	// Outages are sorted by construction; binary search the candidates.
	i := sort.Search(len(outages), func(i int) bool { return outages[i].End > t })
	return i >= len(outages) || outages[i].Start > t
}

// Site is one group of collocated servers.
type Site struct {
	ID      int
	Region  int
	Outages []Outage
}

// NewSites creates n sites spread round-robin over the network's regions,
// each with independently drawn outages over horizonHours.
func NewSites(seed int64, n, regions int, m FailureModel, horizonHours float64) []*Site {
	sites := make([]*Site, n)
	for i := range sites {
		rng := randx.New(seed + int64(i)*101)
		sites[i] = &Site{
			ID:      i,
			Region:  i % regions,
			Outages: GenOutages(rng, m, horizonHours),
		}
	}
	return sites
}

// MonthlyAvailability returns per-site availability for each 30-day
// month within the horizon — the measurement underlying Figure 5.
func MonthlyAvailability(sites []*Site, months int) [][]float64 {
	const hoursPerMonth = 30 * 24
	out := make([][]float64, months)
	for mth := 0; mth < months; mth++ {
		from := float64(mth) * hoursPerMonth
		to := from + hoursPerMonth
		row := make([]float64, len(sites))
		for i, s := range sites {
			row[i] = Availability(s.Outages, from, to)
		}
		out[mth] = row
	}
	return out
}

// UnavailabilityHistogram reproduces Figure 5's bars: for each
// availability threshold, the average (over months) number of sites
// whose monthly availability fell strictly below the threshold.
func UnavailabilityHistogram(monthly [][]float64, thresholds []float64) []float64 {
	out := make([]float64, len(thresholds))
	if len(monthly) == 0 {
		return out
	}
	for ti, th := range thresholds {
		total := 0
		for _, row := range monthly {
			for _, a := range row {
				if a < th {
					total++
				}
			}
		}
		out[ti] = float64(total) / float64(len(monthly))
	}
	return out
}
