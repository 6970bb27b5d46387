package experiments

import (
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/querylog"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// Claim16DriftReconfiguration (C16) reproduces the §5 external-factors
// claim (and the Cacheda et al. finding the paper cites): when the topic
// distribution of queries drifts, a query-driven routing model trained
// on old traffic degrades; detecting the drift online and retraining the
// model restores routing quality. The drift detector is the paper's
// open challenge "to determine online when users change their behavior
// significantly".
func Claim16DriftReconfiguration() *Result {
	f := sharedFixture()
	r := newResult("C16")

	// A strongly drifting four-week log over the fixture web.
	lcfg := querylog.DefaultConfig()
	lcfg.Seed = 77
	lcfg.Days = 28
	lcfg.Total = 16000
	lcfg.Distinct = 1200
	lcfg.DriftAmp = 0.95
	lg := querylog.Generate(f.web, lcfg)

	scorer := rank.NewScorer(rank.FromIndex(f.central))
	const k = 16
	topDocs := func(terms []string, n int) []int {
		rs, _ := rank.EvaluateOR(f.central, scorer, terms, n)
		docs := make([]int, len(rs))
		for i, res := range rs {
			docs[i] = res.Doc
		}
		return docs
	}

	// Initial model from week 1.
	var week1 []querylog.Query
	for _, q := range lg.Queries {
		if q.Day < 7 {
			week1 = append(week1, q)
		}
	}
	ids := index.DocIDs(f.docs)
	ccFixed, selFixed := selection.Train(randx.New(5), week1, f.central, ids, k)
	ccAdapt, selAdapt := ccFixed, selFixed

	detector := querylog.NewDriftDetector(lg.Topics, 400, 0.25)
	var recent []querylog.Query

	// Replay weeks 2-4, measuring recall@2-of-16 per week for the fixed
	// and the adaptive model.
	type weekAcc struct {
		fixed, adapt float64
		n            int
	}
	weeks := map[int]*weekAcc{}
	retrained := 0
	for _, q := range lg.Queries {
		if q.Day < 7 {
			detector.Observe(q.Topic) // warm the reference on week 1
			continue
		}
		recent = append(recent, q)
		if len(recent) > 3000 {
			recent = recent[len(recent)-3000:]
		}
		if detector.Observe(q.Topic) {
			ccAdapt, selAdapt = selection.Train(randx.New(int64(100+retrained)), recent, f.central, ids, k)
			retrained++
		}
		w := q.Day / 7
		acc := weeks[w]
		if acc == nil {
			acc = &weekAcc{}
			weeks[w] = acc
		}
		truth := topDocs(q.Terms, 10)
		acc.fixed += selection.RecallAtN(selFixed, q.Terms, truth, ccFixed.Partition.Assign, 2)
		acc.adapt += selection.RecallAtN(selAdapt, q.Terms, truth, ccAdapt.Partition.Assign, 2)
		acc.n++
	}

	t := metrics.NewTable("recall@2-of-16 by week (model trained on week 1)",
		"week", "fixed model", "adaptive (drift-triggered retraining)")
	var firstFixed, firstAdapt, lastFixed, lastAdapt float64
	for w := 1; w <= 3; w++ {
		acc := weeks[w]
		if acc == nil || acc.n == 0 {
			continue
		}
		fx := acc.fixed / float64(acc.n)
		ad := acc.adapt / float64(acc.n)
		t.AddRow(w+1, fx, ad) // weeks displayed 2..4
		if firstFixed == 0 {
			firstFixed, firstAdapt = fx, ad
		}
		lastFixed, lastAdapt = fx, ad
	}
	r.Tables = append(r.Tables, t)
	d := metrics.NewTable("drift detection", "metric", "value")
	d.AddRow("detections", detector.Detections)
	d.AddRow("retrainings", retrained)
	r.Tables = append(r.Tables, d)
	r.Values = map[string]float64{
		"fixed_week2": firstFixed,
		"adapt_week2": firstAdapt,
		"fixed_week4": lastFixed,
		"adapt_week4": lastAdapt,
		"retrainings": float64(retrained),
	}
	r.Notes = append(r.Notes,
		"paper: 'changes in the topic distribution of queries can adversely impact performance'; 'a possible solution ... is the automatic reconfiguration of the index partition, considering information from the query logs'")
	return r
}
