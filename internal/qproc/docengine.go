package qproc

import (
	"fmt"
	"sort"

	"dwr/internal/conc"
	"dwr/internal/index"
	"dwr/internal/metrics"
	"dwr/internal/partition"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// DocEngine is a document-partitioned query processing cluster: K query
// processors each hold an inverted index over a sub-collection, and a
// broker scatters queries, optionally after collection selection, then
// merges the per-partition top-k lists.
//
// A partition is a source of immutable views (index.Manifest): a built
// index wrapped once (NewDocEngine) or a segment store whose manifest of
// the moment is taken per query (NewLiveEngine). Everything downstream
// of the per-query snapshot — statistics, bounds, waves, fault policy,
// caching — is the same code for both.
//
// The scatter-gather is real: partition evaluations fan out over a
// bounded worker pool (WithWorkers; default GOMAXPROCS) and the broker
// aggregates per-partition results serially at the gather point, so
// results and all accounting are byte-identical to the serial broker
// (workers=1). The engine is safe for concurrent Query calls: the
// partition indexes are immutable concurrent-reader structures and the
// busy-load accounting is guarded by a mutex taken only at the gather.
type DocEngine struct {
	broker
	// sources yield each partition's current view.
	sources []func() *index.Manifest
	// parts and global exist only on engines built from documents: the
	// partition indexes, and the statistics of the whole collection
	// precomputed from them (GlobalPrecomputed).
	parts     []*index.Index
	global    index.Stats
	downs     []bool // SetDown marks, guarded by mu
	partition partition.DocPartition
	// pruning is the default top-k strategy for disjunctive queries
	// (WithPruning); DocQueryOptions.Pruning overrides per query.
	pruning rank.Pruning
	// threshold enables the bound-ordered wave schedule by default
	// (WithThresholdSharing); DocQueryOptions.Threshold overrides per
	// query. tsc accumulates what the scheduler did (guarded by mu).
	threshold bool
	tsc       metrics.ThresholdCounters
	// topkStats is the statistics mode of QueryTopK (the uniform Engine
	// surface): GlobalPrecomputed on engines built from documents, the
	// two-round protocol over segment stores, where nothing is
	// precomputed.
	topkStats StatsMode
}

// NewDocEngine builds per-partition indexes from docs according to the
// document partition; the K partition indexes are constructed
// concurrently. Documents not present in the partition assignment are
// dropped. Configuration is by functional options — e.g.
//
//	NewDocEngine(opts, docs, dp,
//	    WithWorkers(8),
//	    WithResultCache(ResultCacheConfig{Capacity: 4096}),
//	    WithFaultPolicy(DefaultFaultPolicy()),
//	    WithInjector(inj))
//
// — applied on top of the ambient defaults (SetDefaultOptions).
func NewDocEngine(opts index.Options, docs []index.Doc, dp partition.DocPartition, options ...Option) (*DocEngine, error) {
	eo := resolveOptions(options)
	builders := make([]*index.MemBuilder, dp.K)
	for i := range builders {
		builders[i] = index.NewBuilder(opts)
	}
	for _, d := range docs {
		p, ok := dp.Assign[d.Ext]
		if !ok {
			continue
		}
		builders[p].AddDocument(d.Ext, d.Terms)
	}
	parts := index.BuildAll(builders, eo.workers)
	sources := make([]func() *index.Manifest, len(parts))
	for i, ix := range parts {
		v := index.ViewOf(ix)
		sources[i] = func() *index.Manifest { return v }
	}
	stats := make([]index.Stats, len(parts))
	conc.Do(len(parts), eo.workers, func(i int) {
		stats[i] = parts[i].LocalStats(nil)
	})
	e := newDocBroker(eo, sources)
	e.parts = parts
	e.partition = dp
	e.global = index.MergeStats(stats...)
	if e.global.NumDocs == 0 {
		return nil, fmt.Errorf("qproc: document partition covers no documents")
	}
	e.topkStats = GlobalPrecomputed
	return e, nil
}

// newDocBroker builds the engine around its partition sources:
// everything that does not depend on where the partitions' postings live.
func newDocBroker(eo engineOptions, sources []func() *index.Manifest) *DocEngine {
	return &DocEngine{
		broker:    newBroker(eo, len(sources)),
		sources:   sources,
		downs:     make([]bool, len(sources)),
		pruning:   eo.pruning,
		threshold: eo.threshold,
	}
}

// Partition returns the underlying document partition.
func (e *DocEngine) Partition() partition.DocPartition { return e.partition }

// PartIndex exposes partition p's index (for stats and selection setup).
func (e *DocEngine) PartIndex(p int) *index.Index { return e.parts[p] }

// GlobalStats returns the precomputed whole-collection statistics.
func (e *DocEngine) GlobalStats() index.Stats { return e.global }

// SetDown marks a query processor as failed (true) or recovered (false);
// the broker skips failed processors and flags the answer Degraded — the
// paper's "the system might still be able to answer queries without
// using all the sub-collections". Topology changes invalidate the result
// cache: entries computed against the old liveness would otherwise mask
// the change (recovered servers' documents missing, etc.). For dynamic
// failure scenarios prefer WithInjector and faultsim outage windows
// (faultsim.Window); SetDown remains for static topology experiments.
func (e *DocEngine) SetDown(p int, down bool) {
	e.mu.Lock()
	e.downs[p] = down
	e.mu.Unlock()
	if e.rcache != nil {
		e.rcache.Invalidate()
	}
}

// StatsMode selects which statistics drive scoring (experiment C9).
type StatsMode int

// Statistics modes.
const (
	// GlobalTwoRound runs the paper's two-round protocol: round one
	// collects per-partition statistics for the query terms, round two
	// evaluates with the merged global statistics piggybacked on the
	// query. Rankings equal a centralized evaluation.
	GlobalTwoRound StatsMode = iota
	// GlobalPrecomputed uses engine-wide statistics computed at indexing
	// time (one round, exact, but stale under index updates — engines
	// over segment stores do not offer it).
	GlobalPrecomputed
	// LocalOnly scores each partition with its own statistics (one
	// round, no stats traffic, rankings may diverge from centralized).
	LocalOnly
)

// ThresholdMode selects how the broker schedules the evaluation scatter
// of one query.
type ThresholdMode int

const (
	// ThresholdDefault (the zero value) defers to the engine's
	// WithThresholdSharing setting: ThresholdShared on an engine
	// configured with sharing, otherwise single-wave.
	ThresholdDefault ThresholdMode = iota
	// ThresholdShared evaluates partitions in waves ordered by their
	// resident query score upper bound: the first wave runs unseeded,
	// every later wave is seeded with the broker's running k-th merged
	// score, and partitions whose bound cannot beat it are skipped
	// without being contacted. Rank-identical to ThresholdSingleWave.
	ThresholdShared
	// ThresholdSingleWave scatters one wave over all target partitions
	// at threshold 0 — the classic scatter-gather.
	ThresholdSingleWave
)

// thresholdFirstWave is the size of the first (unseeded) wave of a
// shared-threshold schedule; later waves double. Small enough that the
// highest-bound partitions establish a threshold before the long tail is
// touched, fixed regardless of worker width so the schedule — and with
// it every skip decision — is deterministic.
const thresholdFirstWave = 2

// DocQueryOptions configures one query evaluation.
type DocQueryOptions struct {
	K        int
	Stats    StatsMode
	Selector selection.Selector // nil = contact every partition
	SelectN  int                // partitions to contact when Selector is set
	// Phrase asks for the documents holding the terms consecutively, in
	// order, ranked by phrase frequency (§5): each partition intersects
	// positions locally and ships only its top k.
	Phrase bool
	// Pruning selects the disjunctive top-k strategy for this query;
	// rank.PruneNone (the zero value) defers to the engine's WithPruning
	// default. Rankings are identical across strategies — only the decode
	// work (and thus PostingBytesDecoded) changes.
	Pruning rank.Pruning
	// Threshold selects the scatter schedule for this query;
	// ThresholdDefault defers to the engine's WithThresholdSharing
	// default. Phrase queries always run a single wave (the phrase
	// evaluator takes no seed, and rank.QueryBound bounds disjunctive
	// scores only).
	Threshold ThresholdMode
	// DeadlineMs, when > 0, is the query's latency budget: it tightens
	// the fault policy's per-call deadline on every partition call, and
	// an answer that would still arrive later than the budget is dropped
	// (Err = ErrDeadlineExceeded) rather than delivered late. It does
	// not change which results a within-budget answer contains, so it is
	// deliberately not part of the result-cache key.
	DeadlineMs float64
}

// partEval is one partition's contribution, produced by a worker and
// consumed serially at the gather point.
type partEval struct {
	rs []rank.Result
	es rank.EvalStats
}

// Query evaluates terms and returns the merged top-k with full resource
// accounting.
func (e *DocEngine) Query(terms []string, opt DocQueryOptions) QueryResult {
	if opt.K <= 0 {
		opt.K = 10
	}
	if opt.Pruning == rank.PruneNone {
		opt.Pruning = e.pruning
	}
	// Resolve the engine default before the cache key is computed (same
	// pattern as Pruning): an engine whose default is single-wave leaves
	// the zero value in place, so externally computed DocCacheKeys (SDC
	// warming, log analysis) agree with the engine's own.
	if opt.Threshold == ThresholdDefault && e.threshold {
		opt.Threshold = ThresholdShared
	}
	var key string
	if e.rcache != nil {
		key = DocCacheKey(terms, opt)
	}
	return e.answer(key, opt.DeadlineMs, func(tick int64) QueryResult {
		return e.evaluate(tick, terms, opt)
	})
}

// live drops the partitions marked down (SetDown) from targets, in
// place.
func (e *DocEngine) live(targets []int) []int {
	e.mu.Lock()
	defer e.mu.Unlock()
	live := targets[:0]
	for _, p := range targets {
		if !e.downs[p] {
			live = append(live, p)
		}
	}
	return live
}

// evaluate is a result-cache miss: opt resolved, tick drawn by the frame.
func (e *DocEngine) evaluate(tick int64, terms []string, opt DocQueryOptions) QueryResult {
	var qr QueryResult

	// Snapshot every partition before statistics or evaluation: the
	// answer is a pure function of the views captured here, however many
	// manifests their stores swap in while it is being computed.
	views := make([]*index.Manifest, len(e.sources))
	for p, src := range e.sources {
		views[p] = src()
	}

	// Choose target partitions.
	targets := make([]int, 0, len(views))
	if opt.Selector != nil && opt.SelectN > 0 {
		ranked := opt.Selector.Rank(terms)
		n := opt.SelectN
		if n > len(ranked) {
			n = len(ranked)
		}
		targets = append(targets, ranked[:n]...)
	} else {
		for p := range views {
			targets = append(targets, p)
		}
	}
	// Down-marked targets are lost before they are contacted: the answer
	// is degraded (or refused, fail-fast) exactly as if their calls failed.
	down := len(targets)
	targets = e.live(targets)
	down -= len(targets)
	qr.ServersContacted = len(targets)
	if len(targets) == 0 {
		e.degrade(&qr, down, down, "partitions")
		return qr
	}

	// Round 1 (two-round protocol only): gather local stats per term,
	// one scatter over the worker pool.
	scorers := make([]*rank.Scorer, len(targets))
	var round1Max float64
	switch opt.Stats {
	case GlobalTwoRound:
		qr.Rounds = 2
		parts := make([]index.Stats, len(targets))
		conc.Do(len(targets), e.workers, func(i int) {
			parts[i] = views[targets[i]].LocalStats(terms)
		})
		// Stats messages are tiny; the round still costs a LAN RTT.
		qr.BytesTransferred += int64(16 * len(terms) * len(targets))
		merged := index.MergeStats(parts...)
		// NumDocs/TotalLen must cover the full engine, not just the
		// contacted partitions' term stats: sum the resident figures of
		// every snapshot the query holds.
		merged.NumDocs, merged.TotalLen = 0, 0
		for _, v := range views {
			merged.NumDocs += v.NumDocs()
			merged.TotalLen += v.TotalLen()
		}
		s := rank.NewScorer(rank.FromGlobal(merged))
		for i := range scorers {
			scorers[i] = s
		}
		round1Max = e.lanMs
	case GlobalPrecomputed:
		qr.Rounds = 1
		s := rank.NewScorer(rank.FromGlobal(e.global))
		for i := range scorers {
			scorers[i] = s
		}
	default: // LocalOnly
		qr.Rounds = 1
		conc.Do(len(targets), e.workers, func(i int) {
			scorers[i] = rank.NewScorer(rank.FromGlobal(views[targets[i]].LocalStats(terms)))
		})
	}

	// Round 2: scatter the evaluation in waves. The classic single-wave
	// path is the degenerate schedule — one wave holding every target,
	// nothing skipped, threshold 0 — so both paths share the scatter and
	// gather code below. Under ThresholdShared, partitions are visited in
	// descending resident query-bound order in doubling waves; every wave
	// after the first is seeded with the broker's running k-th merged
	// score and partitions whose bound cannot beat it (rank.Competitive)
	// are skipped without being contacted.
	shared := opt.Threshold == ThresholdShared && !opt.Phrase && len(targets) > 1
	order := make([]int, len(targets))
	for i := range order {
		order[i] = i
	}
	var bounds []float64
	if shared {
		bounds = make([]float64, len(targets))
		conc.Do(len(targets), e.workers, func(i int) {
			bounds[i] = rank.QueryBound(views[targets[i]], scorers[i], terms)
		})
		// Descending bound; ties by ascending partition index keep the
		// schedule deterministic at any worker width.
		sort.Slice(order, func(a, b int) bool {
			i, j := order[a], order[b]
			if bounds[i] != bounds[j] {
				return bounds[i] > bounds[j]
			}
			return targets[i] < targets[j]
		})
	}

	// Each worker writes only its own evals slot; every wave's gather
	// aggregates serially in schedule order under the engine lock, so
	// results and accounting are identical to the serial broker.
	evals := make([]partEval, len(targets))
	merger := rank.NewTopKMerger(opt.K)
	var slowest float64 // summed per-wave slowest-call latencies
	lost, dispatched := 0, 0
	waveSize := len(targets)
	if shared {
		waveSize = thresholdFirstWave
	}
	ws := make([]int, 0, waveSize)
	for next := 0; next < len(order); {
		seed := 0.0
		if shared {
			if t, ok := merger.Threshold(); ok {
				seed = t
			}
		}
		ws = ws[:0]
		for next < len(order) && len(ws) < waveSize {
			i := order[next]
			next++
			// A zero bound means no query term occurs in the partition; a
			// non-competitive bound proves it holds no global top-k
			// document. Either way the broker never contacts it.
			if shared && (bounds[i] <= 0 || (seed > 0 && !rank.Competitive(bounds[i], seed))) {
				qr.PartitionsSkipped++
				continue
			}
			ws = append(ws, i)
		}
		if len(ws) == 0 {
			continue
		}
		qr.Waves++
		dispatched += len(ws)
		waveSeed := seed
		conc.Do(len(ws), e.workers, func(j int) {
			i := ws[j]
			p := targets[i]
			if opt.Phrase {
				evals[i].rs, evals[i].es = rank.EvaluateViewPhrase(views[p], scorers[i], terms, opt.K)
			} else {
				evals[i].rs, evals[i].es = rank.EvaluateView(views[p], scorers[i], terms, opt.K, opt.Pruning, waveSeed)
			}
		})
		var waveSlowest float64
		e.mu.Lock()
		for _, i := range ws {
			ms, ok := e.call(tick, targets[i], e.cost.ServiceMs(evals[i].es.PostingsDecoded), opt.DeadlineMs, &qr)
			if ms > waveSlowest {
				waveSlowest = ms
			}
			if !ok {
				lost++
				continue
			}
			qr.addEval(evals[i].es, len(evals[i].rs))
			merger.Add(evals[i].rs)
		}
		e.mu.Unlock()
		slowest += waveSlowest
		if shared {
			waveSize *= 2
		}
	}
	qr.ServersContacted = dispatched
	qr.Results = merger.Results()
	qr.LatencyMs = round1Max + slowest + e.lanMs // stats round + eval waves + reply
	if shared {
		e.mu.Lock()
		e.tsc.Merge(metrics.ThresholdCounters{
			Queries:             1,
			Waves:               qr.Waves,
			PartitionsEvaluated: dispatched,
			PartitionsSkipped:   qr.PartitionsSkipped,
			PostingsDecoded:     qr.PostingsDecoded,
			PostingBytesDecoded: qr.PostingBytesDecoded,
		})
		e.mu.Unlock()
	}
	e.degrade(&qr, lost+down, len(targets)+down, "partitions")
	return qr
}
