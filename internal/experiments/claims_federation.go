package experiments

import (
	"fmt"

	"dwr/internal/metrics"
	"dwr/internal/qproc"
)

// Claim22FederatedVsOpen (C22) quantifies §5's Interaction axis: in a
// federated system the sites "behave in the best interest of the
// system", so peak-hour offloading works; in an open system the remote
// sites act from self-interest, re-prioritizing their own traffic, and
// the party that offloads "obtains" worse results — here, worse latency
// — from the same routing decision.
func Claim22FederatedVsOpen() *Result {
	r := newResult("C22")

	run := func(selfish bool) (p99Queue, meanLat float64, offloaded int) {
		f := sharedFixture()
		m := newFixtureMultiSite(3, qproc.RouteLoadAware, 0, 300)
		for _, s := range m.Sites {
			if s.ID != 0 {
				s.Selfish = selfish
				s.ForeignPenaltyMs = 400
			}
		}
		var q metrics.Sample
		var lat metrics.Welford
		for i := 0; i < 900; i++ {
			query := f.test.Queries[i%len(f.test.Queries)]
			res := m.Submit(query.Terms, fmt.Sprintf("q%d", i), 0, 2.5, 10)
			if res.Failed {
				continue
			}
			q.Add(res.QueueMs)
			lat.Add(res.LatencyMs)
			if res.Executor != res.Coordinator {
				offloaded++
			}
		}
		return q.Quantile(0.99), lat.Mean(), offloaded
	}
	fedQ, fedLat, fedOff := run(false)
	openQ, openLat, openOff := run(true)

	t := metrics.NewTable("peak-hour offloading (900 queries into one region, capacity 300/h)",
		"system", "p99 queue+penalty (ms)", "mean latency (ms)", "offloaded")
	t.AddRow("federated (cooperative sites)", fedQ, fedLat, fedOff)
	t.AddRow("open (self-interested remotes)", openQ, openLat, openOff)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"fed_p99":   fedQ,
		"open_p99":  openQ,
		"fed_lat":   fedLat,
		"open_lat":  openLat,
		"offloaded": float64(fedOff),
	}
	r.Notes = append(r.Notes,
		"paper: in open systems 'parties may allocate resources in a self-interested fashion, thereby having a negative impact on the results a particular party obtains'")
	return r
}
