package main

import (
	"fmt"
	"io"

	"dwr/internal/core"
	"dwr/internal/faultsim"
	"dwr/internal/metrics"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/replication"
)

// faultsConfig seeds the fault schedules.
type faultsConfig struct {
	Seed int64 `json:"seed"`
}

var faultsScenario = define("faults",
	"fault injection: one query log under crash / flaky / slow / outage schedules; availability, tail latency, retry and hedge work",
	faultsConfig{Seed: 42}, measureFaults)

// faultEnv is one fault environment replayed against the same corpus,
// partition, and query log.
type faultEnv struct {
	name   string
	policy qproc.FaultPolicy
	inj    *faultsim.Injector // nil = nothing injected (baseline)
	// deadlineMs, when > 0, is every query's latency budget.
	deadlineMs float64
	note       string
	// predictFail, when > 0, reports the replication-arithmetic
	// availability of the policy's attempt budget for this per-attempt
	// failure probability.
	predictFail float64
}

// measureFaults builds one small end-to-end engine, then replays the
// same query log under each fault environment. Everything derives from
// fixed seeds and virtual time, so every value is a counter.
func measureFaults(w io.Writer, c faultsConfig) ([]row, error) {
	cfg := core.DefaultConfig()
	cfg.Web.Hosts = 60
	base, err := core.Build(cfg)
	if err != nil {
		return nil, err
	}
	lcfg := querylog.DefaultConfig()
	lcfg.Seed = cfg.Seed + 5
	lcfg.Total = 2000
	lcfg.Distinct = 400
	lg := querylog.Generate(base.Web, lcfg)

	def := qproc.DefaultFaultPolicy()
	failFast := def
	failFast.Mode = qproc.FailFast
	flaky := faultsim.Spec{FlakyP: 0.10}
	envs := []faultEnv{
		{
			name:   "baseline",
			policy: def,
			note:   "no faults injected; the robust path must match the plain engine exactly",
		},
		{
			name:        "flaky-10",
			policy:      def,
			inj:         faultsim.New(c.Seed).Default(flaky),
			note:        "every partition replica fails 10% of calls; default policy (2 replicas, 2 retries)",
			predictFail: 0.10,
		},
		{
			name:   "flaky-10-no-retry",
			policy: qproc.FaultPolicy{MaxRetries: 0, Replicas: 1},
			inj:    faultsim.New(c.Seed).Default(flaky),
			note:   "same fault schedule with retries disabled — the control",
		},
		{
			name:   "crash-and-outage",
			policy: def,
			inj: faultsim.New(c.Seed).
				Unit(0, faultsim.Spec{Crash: true}).
				Window(faultsim.Window{Unit: 1, Replica: 0, From: 500, To: 1000}),
			note: "partition 0 dead on every replica; partition 1 primary out for ticks 500-1000",
		},
		{
			name:   "slow-30-hedged",
			policy: def,
			inj:    faultsim.New(c.Seed).Default(faultsim.Spec{SlowP: 0.30, SlowMeanMs: 25}),
			note:   "30% of calls straggle (log-normal, mean 25ms); hedging at the partition p95",
		},
		{
			name:       "flaky-10-fail-fast",
			policy:     failFast,
			inj:        faultsim.New(c.Seed).Default(flaky),
			deadlineMs: 80,
			note:       "fail-fast mode with an 80ms deadline: partial answers are refused, not degraded",
		},
	}

	fmt.Fprintf(w, "%d partitions, %d queries\n", base.Query.K(), len(lg.Queries))
	var rows []row
	for _, env := range envs {
		fmt.Fprintf(w, "%s: %s\n", env.name, env.note)
		eng, err := qproc.NewDocEngine(cfg.Index, base.Docs, base.Partition, qproc.WithFaults(env.policy, env.inj))
		if err != nil {
			return nil, err
		}

		var lat metrics.Sample
		clean, degraded, failed := 0, 0, 0
		for _, q := range lg.Queries {
			qr := eng.QueryTopKWithin(q.Terms, 10, env.deadlineMs)
			lat.Add(qr.LatencyMs)
			switch {
			case qr.Err != nil:
				failed++
			case qr.Degraded:
				degraded++
			default:
				clean++
			}
		}
		f := eng.Stats().Faults
		n := float64(len(lg.Queries))
		r := row{Name: env.name, Counters: map[string]float64{
			"clean_pct":     100 * float64(clean) / n,
			"degraded_pct":  100 * float64(degraded) / n,
			"failed_pct":    100 * float64(failed) / n,
			"p50_ms":        lat.Quantile(0.5),
			"p95_ms":        lat.Quantile(0.95),
			"p99_ms":        lat.Quantile(0.99),
			"max_ms":        lat.Max(),
			"faults_seen":   float64(f.FaultsSeen),
			"retries":       float64(f.Retries),
			"failovers":     float64(f.Failovers),
			"hedges":        float64(f.Hedges),
			"hedge_wins":    float64(f.HedgeWins),
			"timeouts":      float64(f.Timeouts),
			"lost":          float64(f.Lost),
			"partitions_up": float64(eng.Health().Live()),
		}}
		if env.predictFail > 0 {
			r.Counters["predicted_partition_availability"] = replication.Availability(1-env.predictFail, env.policy.MaxRetries+1)
		}
		rows = append(rows, r)
	}
	return rows, nil
}
