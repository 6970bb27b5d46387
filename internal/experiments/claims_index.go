package experiments

import (
	"sort"
	"time"

	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// Claim6TermVsDoc (C6) reproduces the Webber et al. resource comparison:
// pipelined term partitioning touches fewer servers and reads fewer
// posting bytes per query, while document partitioning sustains higher
// throughput (modelled as the bottleneck server's busy time per query).
func Claim6TermVsDoc() *Result {
	f := sharedFixture()
	r := newResult("C6")
	const k = 8
	opts := index.DefaultOptions()
	de, err := qproc.NewDocEngine(opts, f.docs, partition.RoundRobinDocs(index.DocIDs(f.docs), k))
	if err != nil {
		panic(err)
	}
	tp := partition.BinPackTerms(f.central.Terms(), func(t string) float64 {
		return float64(f.central.DF(t))
	}, k)
	te, err := qproc.NewTermEngine(opts, f.docs, tp)
	if err != nil {
		panic(err)
	}
	queries := queryTerms(f.test, 2000)
	var dSrv, tSrv int
	var dAcc, tAcc int
	var dBytes, tBytes int64
	var dXfer, tXfer int64
	for _, q := range queries {
		dq := de.Query(q, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalPrecomputed})
		tq := te.Query(q, 10)
		dSrv += dq.ServersContacted
		tSrv += tq.ServersContacted
		dAcc += dq.ListsAccessed
		tAcc += tq.ListsAccessed
		dBytes += dq.PostingBytesRead
		tBytes += tq.PostingBytesRead
		dXfer += dq.BytesTransferred
		tXfer += tq.BytesTransferred
	}
	n := float64(len(queries))
	// Throughput model: with per-server busy time b_i accumulated over
	// the workload, the bottleneck server limits throughput to
	// queries / max_i(b_i).
	docBusy := metrics.NewImbalance(de.BusyMs())
	termBusy := metrics.NewImbalance(te.BusyMs())
	docThroughput := n / docBusy.Max * 1000 // queries per second of busy-bottleneck time
	termThroughput := n / termBusy.Max * 1000

	t := metrics.NewTable("per-query resource usage over the same workload",
		"system", "servers/query", "disk accesses/query", "posting KB read/query", "KB moved/query", "bottleneck throughput (q/s)")
	t.AddRow("document", float64(dSrv)/n, float64(dAcc)/n, float64(dBytes)/n/1024, float64(dXfer)/n/1024, docThroughput)
	t.AddRow("term (pipelined)", float64(tSrv)/n, float64(tAcc)/n, float64(tBytes)/n/1024, float64(tXfer)/n/1024, termThroughput)
	r.Tables = append(r.Tables, t)
	r.Values = map[string]float64{
		"doc_servers":     float64(dSrv) / n,
		"term_servers":    float64(tSrv) / n,
		"doc_accesses":    float64(dAcc) / n,
		"term_accesses":   float64(tAcc) / n,
		"doc_bytes":       float64(dBytes) / n,
		"term_bytes":      float64(tBytes) / n,
		"doc_throughput":  docThroughput,
		"term_throughput": termThroughput,
	}
	r.Notes = append(r.Notes, "paper (Webber et al.): term partitioning 'significantly reduces the number of disk accesses and the volume of data exchanged ... although document partitioning is still better in terms of throughput'")
	return r
}

// Claim7BinPacking (C7) compares term-partitioned load balance under
// random assignment, Moffat-style bin-packing (weight = query frequency ×
// posting length), and Lucchese-style co-occurrence-aware packing, and
// the servers contacted per query under each.
func Claim7BinPacking() *Result {
	f := sharedFixture()
	r := newResult("C7")
	const k = 8
	qf := f.train.TermWeights()
	weight := func(t string) float64 {
		return float64(qf[t]) * float64(f.central.DF(t))
	}
	terms := f.central.Terms()
	co := f.train.CoOccurrence()

	rnd := partition.RandomTerms(randx.New(5), terms, k)
	bp := partition.BinPackTerms(terms, weight, k)
	cp := partition.CoOccurTerms(terms, weight, co, k, 0.25)

	queries := queryTerms(f.test, 3000)
	t := metrics.NewTable("load spread (weight = query-freq × posting length) and contacts",
		"assignment", "CV of load", "max/mean", "avg servers/query")
	for _, row := range []struct {
		name string
		tp   partition.TermPartition
	}{{"random", rnd}, {"bin-packing (Moffat)", bp}, {"co-occurrence (Lucchese)", cp}} {
		im := metrics.NewImbalance(row.tp.Loads(weight))
		t.AddRow(row.name, im.CV, im.MaxOver, row.tp.AvgPartsPerQuery(queries))
	}
	r.Tables = append(r.Tables, t)
	rndIm := metrics.NewImbalance(rnd.Loads(weight))
	bpIm := metrics.NewImbalance(bp.Loads(weight))
	cpIm := metrics.NewImbalance(cp.Loads(weight))
	r.Values = map[string]float64{
		"random_cv":     rndIm.CV,
		"binpack_cv":    bpIm.CV,
		"cooccur_cv":    cpIm.CV,
		"random_parts":  rnd.AvgPartsPerQuery(queries),
		"binpack_parts": bp.AvgPartsPerQuery(queries),
		"cooccur_parts": cp.AvgPartsPerQuery(queries),
	}
	r.Notes = append(r.Notes, "paper: bin-packing 'is able to distribute the load on each server more evenly'; co-occurrence packing also reduces 'the number of servers queried'")
	return r
}

// Claim8CollectionSelection (C8) reproduces the Puppin et al. result:
// query-driven co-clustering plus query-driven selection beats CORI and
// random selection on recall of the true top-20, and a large fraction of
// the collection is never recalled by training queries.
func Claim8CollectionSelection() *Result {
	f := sharedFixture()
	r := newResult("C8")
	const k = 16
	rng := randx.New(9)
	scorer := rank.NewScorer(rank.FromIndex(f.central))

	// Training: the 600 most frequent distinct train queries → their true
	// top-10. Real logs concentrate on a popularity head, so this cap
	// keeps both the Web-scale property that much of the collection is
	// never recalled and high instance coverage of future traffic.
	freq := make(map[string]int)
	firstSeen := make(map[string]querylog.Query)
	for _, q := range f.train.Queries {
		freq[q.Key]++
		if _, ok := firstSeen[q.Key]; !ok {
			firstSeen[q.Key] = q
		}
	}
	keys := make([]string, 0, len(freq))
	for k2 := range freq {
		keys = append(keys, k2)
	}
	sort.Slice(keys, func(a, b int) bool {
		if freq[keys[a]] != freq[keys[b]] {
			return freq[keys[a]] > freq[keys[b]]
		}
		return keys[a] < keys[b]
	})
	if len(keys) > 600 {
		keys = keys[:600]
	}
	var train []partition.QueryDocs
	for _, key := range keys {
		q := firstSeen[key]
		rs, _ := rank.EvaluateOR(f.central, scorer, q.Terms, 10)
		docs := make([]int, len(rs))
		for i, res := range rs {
			docs[i] = res.Doc
		}
		train = append(train, partition.QueryDocs{Key: q.Key, Terms: q.Terms, Docs: docs})
	}
	cc := partition.CoClusterDocs(rng, train, index.DocIDs(f.docs), k, 15)
	qd := selection.NewQueryDriven(cc, train)

	// CORI and random operate over the same query-driven partition so
	// only the selector differs.
	var stats []index.Stats
	perPart := make(map[int]*index.MemBuilder)
	for p := 0; p < k; p++ {
		perPart[p] = index.NewBuilder(index.DefaultOptions())
	}
	for _, d := range f.docs {
		if p, ok := cc.Partition.Assign[d.Ext]; ok {
			perPart[p].AddDocument(d.Ext, d.Terms)
		}
	}
	for p := 0; p < k; p++ {
		stats = append(stats, index.MustBuild(perPart[p]).LocalStats(nil))
	}
	cori := selection.NewCORI(stats)
	rnd := selection.NewRandom(10, k)

	// Test: recall@n of the true top-20 for unseen-day queries.
	evalRecall := func(sel selection.Selector, n int) float64 {
		sum, cnt := 0.0, 0
		for i, q := range f.test.Queries {
			if i >= 1500 {
				break
			}
			rs, _ := rank.EvaluateOR(f.central, scorer, q.Terms, 20)
			if len(rs) == 0 {
				continue
			}
			top := make([]int, len(rs))
			for j, res := range rs {
				top[j] = res.Doc
			}
			sum += selection.RecallAtN(sel, q.Terms, top, cc.Partition.Assign, n)
			cnt++
		}
		if cnt == 0 {
			return 0
		}
		return sum / float64(cnt)
	}

	t := metrics.NewTable("mean recall of the true top-20 when querying only n of 16 partitions",
		"selector", "n=1", "n=2", "n=4", "n=8")
	sels := []struct {
		name string
		s    selection.Selector
	}{{"query-driven (Puppin)", qd}, {"CORI", cori}, {"random", rnd}}
	recalls := map[string][4]float64{}
	for _, e := range sels {
		var row [4]float64
		for i, n := range []int{1, 2, 4, 8} {
			row[i] = evalRecall(e.s, n)
		}
		recalls[e.name] = row
		t.AddRow(e.name, row[0], row[1], row[2], row[3])
	}
	r.Tables = append(r.Tables, t)

	never := float64(len(cc.NeverRecalled)) / float64(len(f.docs))
	nv := metrics.NewTable("never-recalled documents", "metric", "value")
	nv.AddRow("documents", len(f.docs))
	nv.AddRow("never recalled by training queries", len(cc.NeverRecalled))
	nv.AddRow("fraction", never)
	r.Tables = append(r.Tables, nv)
	r.Values = map[string]float64{
		"qd_recall1":     recalls["query-driven (Puppin)"][0],
		"cori_recall1":   recalls["CORI"][0],
		"rand_recall1":   recalls["random"][0],
		"qd_recall4":     recalls["query-driven (Puppin)"][2],
		"cori_recall4":   recalls["CORI"][2],
		"never_recalled": never,
	}
	r.Notes = append(r.Notes, "paper: query-driven partitioning 'outperform[s] the state-of-the-art model, namely CORI'; Puppin et al. found 53% of documents never recalled")
	return r
}

// Claim9GlobalStats (C9) quantifies the cost of scoring with local
// instead of global statistics: the two-round protocol reproduces the
// centralized ranking exactly; local-only statistics diverge, and the
// divergence shrinks as partitions get larger (fewer of them).
func Claim9GlobalStats() *Result {
	f := sharedFixture()
	r := newResult("C9")
	scorer := rank.NewScorer(rank.FromIndex(f.central))
	queries := queryTerms(f.test, 400)

	t := metrics.NewTable("agreement with centralized top-10 (skewed contiguous partitions)",
		"partitions", "two-round overlap@10", "local-only overlap@10", "local-only Kendall tau")
	var overlap16 float64
	for _, k := range []int{4, 16} {
		// Contiguous chunks: maximal statistics skew.
		dp := partition.DocPartition{K: k, Parts: make([][]int, k), Assign: make(map[int]int)}
		ids := index.DocIDs(f.docs)
		for i, id := range ids {
			p := i * k / len(ids)
			dp.Parts[p] = append(dp.Parts[p], id)
			dp.Assign[id] = p
		}
		e, err := qproc.NewDocEngine(index.DefaultOptions(), f.docs, dp)
		if err != nil {
			panic(err)
		}
		var twoRound, localOnly, tau float64
		n := 0
		for _, q := range queries {
			want, _ := rank.EvaluateOR(f.central, scorer, q, 10)
			if len(want) == 0 {
				continue
			}
			g := e.Query(q, qproc.DocQueryOptions{K: 10, Stats: qproc.GlobalTwoRound})
			l := e.Query(q, qproc.DocQueryOptions{K: 10, Stats: qproc.LocalOnly})
			twoRound += rank.Overlap(want, g.Results, 10)
			localOnly += rank.Overlap(want, l.Results, 10)
			tau += rank.KendallTau(want, l.Results)
			n++
		}
		t.AddRow(k, twoRound/float64(n), localOnly/float64(n), tau/float64(n))
		if k == 16 {
			overlap16 = localOnly / float64(n)
		}
		if k == 4 {
			r.Values = map[string]float64{
				"tworound_overlap": twoRound / float64(n),
				"local_overlap_4":  localOnly / float64(n),
			}
		}
	}
	r.Values["local_overlap_16"] = overlap16
	r.Tables = append(r.Tables, t)
	r.Notes = append(r.Notes, "paper: 'comparing the result set computed on the global statistics with the result set computed using only local statistics' is the proposed measure; the two-round protocol is exact by construction")
	return r
}

// Claim14IndexBuild (C14) verifies the four construction strategies
// produce identical indexes and reports their build times and the
// compression/positions ablation of the layout choices, whose byte
// counts are headline values.
func Claim14IndexBuild() *Result {
	f := sharedFixture()
	r := newResult("C14")
	opts := index.DefaultOptions()

	timeIt := func(fn func() *index.Index) (*index.Index, float64) {
		start := time.Now() //dwrlint:allow wallclock build-time measurement for the C14 table; the built indexes are compared byte-identically
		ix := fn()
		return ix, float64(time.Since(start).Milliseconds()) //dwrlint:allow wallclock build-time measurement for the C14 table; the built indexes are compared byte-identically
	}
	ref, refMs := timeIt(func() *index.Index {
		b := index.NewBuilder(opts)
		for _, d := range f.docs {
			b.AddDocument(d.Ext, d.Terms)
		}
		return index.MustBuild(b)
	})
	sortIx, sortMs := timeIt(func() *index.Index {
		b := index.NewSortBuilder(opts)
		for _, d := range f.docs {
			b.AddDocument(d.Ext, d.Terms)
		}
		return index.MustBuild(b)
	})
	spimiIx, spimiMs := timeIt(func() *index.Index {
		b, err := index.NewSPIMIBuilder(opts, 1<<20, "")
		if err != nil {
			panic(err)
		}
		for _, d := range f.docs {
			if err := b.AddDocument(d.Ext, d.Terms); err != nil {
				panic(err)
			}
		}
		ix, err := b.Build()
		if err != nil {
			panic(err)
		}
		return ix
	})
	mrIx, mrMs := timeIt(func() *index.Index {
		ix, err := index.BuildMapReduce(opts, f.docs, 8, 4)
		if err != nil {
			panic(err)
		}
		return ix
	})
	plIx, plMs := timeIt(func() *index.Index {
		ix, err := index.BuildPipeline(opts, f.docs, 4)
		if err != nil {
			panic(err)
		}
		return ix
	})
	segIx, segMs := timeIt(func() *index.Index {
		store := index.NewSegmentStore(opts, index.MergePolicy{Radix: 3})
		w := index.NewSegmentWriter(store, 256)
		for _, d := range f.docs {
			if err := w.AddDocument(d.Ext, d.Terms); err != nil {
				panic(err)
			}
		}
		return index.MustBuild(w)
	})

	t := metrics.NewTable("construction strategies (identical output verified)",
		"strategy", "build ms", "identical to reference")
	t.AddRow("in-memory inverter", refMs, "-")
	t.AddRow("sort-based (Witten)", sortMs, index.Equal(ref, sortIx))
	t.AddRow("single-pass + spill (Lester)", spimiMs, index.Equal(ref, spimiIx))
	t.AddRow("map-reduce 8×4 (Dean)", mrMs, index.Equal(ref, mrIx))
	t.AddRow("pipelined ×4 (Melink)", plMs, index.Equal(ref, plIx))
	t.AddRow("streaming LSM segments", segMs, index.Equal(ref, segIx))
	r.Tables = append(r.Tables, t)

	// Layout ablation: compression and positions.
	sizes := metrics.NewTable("layout ablation", "layout", "posting bytes", "bytes/posting")
	totalPostings := 0
	for _, term := range ref.Terms() {
		totalPostings += ref.DF(term)
	}
	r.Values = map[string]float64{
		"all_equal": boolTo01(index.Equal(ref, sortIx) && index.Equal(ref, spimiIx) &&
			index.Equal(ref, mrIx) && index.Equal(ref, plIx) && index.Equal(ref, segIx)),
		"docs": float64(ref.NumDocs()),
	}
	for _, row := range []struct {
		name, key string
		o         index.Options
	}{
		{"compressed + positions", "bytes_compressed", index.Options{Compress: true, StorePositions: true, BlockSize: 64}},
		{"compressed, no positions", "bytes_compressed_nopos", index.Options{Compress: true, StorePositions: false, BlockSize: 64}},
		{"fixed-width + positions", "bytes_fixed", index.Options{Compress: false, StorePositions: true, BlockSize: 64}},
	} {
		b := index.NewBuilder(row.o)
		for _, d := range f.docs {
			b.AddDocument(d.Ext, d.Terms)
		}
		ix := index.MustBuild(b)
		sizes.AddRow(row.name, ix.SizeBytes(), float64(ix.SizeBytes())/float64(totalPostings))
		r.Values[row.key] = float64(ix.SizeBytes())
	}
	r.Tables = append(r.Tables, sizes)
	return r
}

func boolTo01(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
