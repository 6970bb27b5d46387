package main

import (
	"errors"
	"fmt"
	"io"

	"dwr/internal/core"
	"dwr/internal/faultsim"
	"dwr/internal/loadgen"
	"dwr/internal/metrics"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/queueing"
	"dwr/internal/server"
)

// serveConfig sizes the capacity sweep; the default 150 workers are the
// paper's 150-thread Apache configuration.
type serveConfig struct {
	Seed     int64     `json:"seed"`     // workload + admission seed
	Workers  int       `json:"workers"`  // front-end worker pool width (G/G/c)
	Arrivals int       `json:"arrivals"` // arrivals per rate point
	Rates    []float64 `json:"rates"`    // multipliers of the capacity bound
}

var serveScenario = define("serve",
	"front-end capacity sweep: open-loop load at multiples of the G/G/c bound c/E[S] (paper §5, Figure 6), closed-loop and faulty points",
	serveConfig{Seed: 42, Workers: 150, Arrivals: 6000, Rates: []float64{0.3, 0.6, 0.9, 1.1, 1.5, 2.0}}, measureServe)

// measureServe validates the paper's G/G/c capacity bound λ < c/E[S]
// against a real engine: it measures E[S] on log traffic, computes the
// predicted bound, then drives the serving front-end (internal/server)
// at multiples of it with an open-loop generator, reporting goodput,
// shed rate, and latency quantiles per point — the hockey stick at the
// bound and graceful degradation past it. Everything runs in virtual
// time off fixed seeds, so every value is a counter.
func measureServe(w io.Writer, o serveConfig) ([]row, error) {
	if o.Workers < 1 || o.Arrivals < 1 || len(o.Rates) == 0 {
		return nil, errors.New("workers and arrivals must be positive and rates non-empty")
	}
	for _, m := range o.Rates {
		if m <= 0 {
			return nil, fmt.Errorf("bad rate multiplier %v", m)
		}
	}

	cfg := core.DefaultConfig()
	cfg.Web.Hosts = 60
	base, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	lcfg := querylog.DefaultConfig()
	lcfg.Seed = cfg.Seed + 9
	lcfg.Total = 4000
	lcfg.Distinct = 600
	lg := querylog.Generate(base.Web, lcfg)

	// Probe E[S] on the head of the log: the mean virtual service time
	// of real engine evaluations is what the bound divides by.
	var svc metrics.Sample
	for _, q := range lg.Queries[:min(500, len(lg.Queries))] {
		svc.Add(base.Query.QueryTopK(q.Terms, 10).LatencyMs)
	}
	meanMs := svc.Mean()
	bound := queueing.CapacityBound(o.Workers, meanMs/1000)
	capacity := map[string]float64{
		"capacity_bound_qps": bound,
		"service_mean_ms":    meanMs,
		"service_p95_ms":     svc.Quantile(0.95),
		"service_p99_ms":     svc.Quantile(0.99),
	}
	rows := []row{{Name: "capacity", Counters: capacity}}

	// Admission is paced at 1.05x the bound.
	scfg := server.Config{
		Workers:    o.Workers,
		QueueCap:   2 * o.Workers,
		DeadlineMs: 50 * meanMs,
		AdmitRate:  1.05 * bound,
		Shed:       server.ShedConfig{TargetP99Ms: 10 * meanMs, Window: 200},
		Seed:       o.Seed,
	}
	for _, m := range o.Rates {
		src := loadgen.Open(lg, loadgen.OpenConfig{
			Seed: o.Seed + int64(m*1000), Rate: m * bound, N: o.Arrivals, BatchFrac: 0.2,
		})
		rep := server.Run(base.Query, scfg, src)
		rows = append(rows, serveRow(fmt.Sprintf("%.2fx", m), rep))
		capacity["peak_goodput_qps"] = max(capacity["peak_goodput_qps"], rep.GoodputQPS)
	}
	// Saturation: how close the measured peak comes to the predicted bound.
	capacity["peak_goodput_over_bound"] = capacity["peak_goodput_qps"] / bound

	// Closed loop: a population 4x the pool saturates the workers but
	// self-limits to N/(E[R]+Z) — run with no admission limits to show
	// that, unlike the open-loop overload, nothing needs to be shed.
	ccfg := scfg
	ccfg.AdmitRate = 0
	ccfg.Shed = server.ShedConfig{}
	ccfg.DeadlineMs = 0
	ccfg.QueueCap = 4 * o.Workers
	closed := loadgen.Closed(lg, loadgen.ClosedConfig{
		Seed: o.Seed + 7, Users: 4 * o.Workers, ThinkMeanSec: meanMs / 1000, N: o.Arrivals,
	})
	fmt.Fprintf(w, "closed: %d users, think E[Z]=E[S], no admission limits\n", 4*o.Workers)
	rows = append(rows, serveRow("closed", server.Run(base.Query, ccfg, closed)))

	// Serving under faults: same sweep point (0.9x bound) against an
	// engine whose partitions flake and straggle, best-effort policy.
	inj := faultsim.New(o.Seed + 13).Default(faultsim.Spec{FlakyP: 0.05, SlowP: 0.10, SlowMeanMs: 3 * meanMs})
	faulty, err := qproc.NewDocEngine(cfg.Index, base.Docs, base.Partition, qproc.WithFaults(qproc.DefaultFaultPolicy(), inj))
	if err != nil {
		return nil, err
	}
	fsrc := loadgen.Open(lg, loadgen.OpenConfig{
		Seed: o.Seed + 17, Rate: 0.9 * bound, N: o.Arrivals, BatchFrac: 0.2,
	})
	frep := server.Run(faulty, scfg, fsrc)
	fmt.Fprintf(w, "faulty: 5%% flaky, 10%% straggling partition calls at 0.90x bound; retries and hedges inflate E[S],\n")
	fmt.Fprintf(w, "        shrinking the effective bound, and the front-end sheds the difference instead of letting latency run away\n")
	fr := serveRow("faulty", frep)
	fr.Counters["degraded"] = float64(frep.Degraded)
	fr.Counters["engine_deadline"] = float64(frep.EngineDeadline)
	fr.Counters["engine_failed"] = float64(frep.EngineFailed)
	return append(rows, fr), nil
}

// serveRow reports one front-end run; latencies are the interactive
// class's.
func serveRow(label string, r server.Report) row {
	shed := r.ShedOverload + r.ShedAdmission + r.ShedQueueFull + r.EvictedDeadline
	it := r.Class[server.Interactive]
	return row{Name: label, Counters: map[string]float64{
		"offered_qps": r.OfferedQPS,
		"goodput_qps": r.GoodputQPS,
		"shed_pct":    100 * float64(shed) / float64(r.Offered),
		"util_pct":    100 * r.Utilization,
		"p50_ms":      it.P50Ms,
		"p95_ms":      it.P95Ms,
		"p99_ms":      it.P99Ms,
		"shed_level":  r.FinalShedLevel,
	}}
}
