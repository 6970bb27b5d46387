package experiments

import (
	"fmt"

	"dwr/internal/metrics"
	"dwr/internal/p2p"
)

// Claim19P2PArchitecture (C19) exercises Section 5's architecture
// classification: in a client/server system the serving capacity is
// fixed, so the supportable client population is bounded; in a
// peer-to-peer system every new client adds capacity, so utilization is
// flat in the population size — until free-riding erodes the serving
// fraction. Structured-overlay routing costs O(log n) hops.
func Claim19P2PArchitecture() *Result {
	r := newResult("C19")
	m := p2p.CapacityModel{ServeQPS: 100, DemandQPS: 5}

	// Capacity scaling.
	t := metrics.NewTable("offered load / capacity as the population grows (16 servers vs P2P)",
		"clients", "client/server utilization", "P2P utilization (no free-riding)")
	csCap := m.ClientServerSupportable(16) // constant capacity
	var csAt1000, p2pAt1000 float64
	for _, n := range []int{100, 320, 1000, 10000} {
		cs := float64(n) / csCap
		pp := m.P2PUtilization(n, 0)
		t.AddRow(n, cs, pp)
		if n == 1000 {
			csAt1000, p2pAt1000 = cs, pp
		}
	}
	r.Tables = append(r.Tables, t)

	// Free-riding sweep.
	fr := metrics.NewTable("P2P utilization vs free-riding fraction (1000 peers)",
		"free-riding", "utilization")
	var frBreak float64
	for _, f := range []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99} {
		u := m.P2PUtilization(1000, f)
		fr.AddRow(f, u)
		if u >= 1 && frBreak == 0 {
			frBreak = f
		}
	}
	r.Tables = append(r.Tables, fr)

	// Overlay routing: mean hops vs size.
	hops := metrics.NewTable("structured-overlay lookup cost", "peers", "mean hops", "log2(n)")
	var hops1024 float64
	for _, n := range []int{64, 256, 1024} {
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("peer-%05d", i)
		}
		o := p2p.New(names)
		total := 0
		const lookups = 400
		for i := 0; i < lookups; i++ {
			_, h := o.Route(i%n, fmt.Sprintf("key%d", i))
			total += h
		}
		mean := float64(total) / lookups
		hops.AddRow(n, mean, log2(n))
		if n == 1024 {
			hops1024 = mean
		}
	}
	r.Tables = append(r.Tables, hops)

	r.Values = map[string]float64{
		"cs_util_1000":  csAt1000,
		"p2p_util_1000": p2pAt1000,
		"fr_break":      frBreak,
		"hops_1024":     hops1024,
	}
	r.Notes = append(r.Notes,
		"paper: 'in peer-to-peer systems ... the total amount of resources available for processing queries increases with the number of clients, assuming that free-riding is not prevalent'")
	return r
}

func log2(n int) float64 {
	l := 0.0
	for v := 1; v < n; v *= 2 {
		l++
	}
	return l
}
