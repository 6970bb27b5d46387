package qproc

import (
	"fmt"
	"sort"
	"sync"

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
	cost  CostModel
	lanMs float64
	// sources yield each partition's current view.
	sources []func() *index.Manifest
	// parts and global exist only on engines built from documents: the
	// partition indexes, and the statistics of the whole collection
	// precomputed from them (GlobalPrecomputed, phrase queries).
	parts     []*index.Index
	global    index.Stats
	workers   int // broker fan-out width; <=0 = GOMAXPROCS, 1 = serial
	mu        sync.Mutex
	busyMs    []float64
	downs     []bool
	queries   int
	degraded  int
	failed    int
	partition partition.DocPartition
	// rcache is the broker-level result cache (level 1); pcaches are the
	// per-partition-server posting-list caches (level 2). Both nil by
	// default; configure at construction (WithResultCache /
	// WithPostingsCache).
	rcache  *ResultCache
	pcaches []*index.PostingsCache
	// rb is the robustness runtime (deadline/retry/hedge policy over the
	// fault-injection layer); nil unless fault options were given, in
	// which case partition calls route through it at the gather point.
	rb *robustness
	// pruning is the default top-k strategy for disjunctive queries
	// (WithPruning); DocQueryOptions.Pruning overrides per query.
	pruning rank.Pruning
	// threshold enables the bound-ordered wave schedule by default
	// (WithThresholdSharing); DocQueryOptions.Threshold overrides per
	// query. tsc accumulates what the scheduler did (guarded by mu).
	threshold bool
	tsc       metrics.ThresholdCounters
	// topkOpts are the per-query options QueryTopK (the uniform Engine
	// surface) uses; K is overridden per call.
	topkOpts DocQueryOptions
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
	e := newBroker(eo, sources)
	e.parts = parts
	e.partition = dp
	e.global = index.MergeStats(stats...)
	if e.global.NumDocs == 0 {
		return nil, fmt.Errorf("qproc: document partition covers no documents")
	}
	e.installPostingsCache(eo.plBytes)
	e.topkOpts = DocQueryOptions{Stats: GlobalPrecomputed}
	if eo.docDefault != nil {
		e.topkOpts = *eo.docDefault
	}
	return e, nil
}

// newBroker builds the engine around its partition sources: everything
// that does not depend on where the partitions' postings live. QueryTopK
// defaults to the two-round protocol, the one statistics mode that needs
// nothing precomputed.
func newBroker(eo engineOptions, sources []func() *index.Manifest) *DocEngine {
	return &DocEngine{
		cost:      DefaultCostModel(),
		lanMs:     0.3,
		sources:   sources,
		workers:   eo.workers,
		busyMs:    make([]float64, len(sources)),
		downs:     make([]bool, len(sources)),
		rcache:    eo.resultCache(),
		rb:        eo.robust(len(sources)),
		pruning:   eo.pruning,
		threshold: eo.threshold,
	}
}

// K returns the number of partitions.
func (e *DocEngine) K() int { return len(e.sources) }

// Partition returns the underlying document partition.
func (e *DocEngine) Partition() partition.DocPartition { return e.partition }

// PartIndex exposes partition p's index (for stats and selection setup).
func (e *DocEngine) PartIndex(p int) *index.Index { return e.parts[p] }

// GlobalStats returns the precomputed whole-collection statistics.
func (e *DocEngine) GlobalStats() index.Stats { return e.global }

// Workers reports the configured fan-out width (0 = GOMAXPROCS).
func (e *DocEngine) Workers() int { return e.workers }

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

// ResultCache returns the installed result cache (nil if none).
func (e *DocEngine) ResultCache() *ResultCache { return e.rcache }

// installPostingsCache materializes the WithPostingsCache option.
func (e *DocEngine) installPostingsCache(bytesPerPartition int64) {
	if bytesPerPartition <= 0 {
		e.pcaches = nil
		return
	}
	e.pcaches = make([]*index.PostingsCache, len(e.parts))
	for i := range e.pcaches {
		e.pcaches[i] = index.NewPostingsCache(bytesPerPartition)
	}
}

// PostingsCacheStats aggregates hit/miss/occupancy over the partition
// servers' posting-list caches (zero value if disabled).
func (e *DocEngine) PostingsCacheStats() PostingsCacheStats {
	var out PostingsCacheStats
	for _, pc := range e.pcaches {
		h, m, b := pc.Stats()
		out.Hits += h
		out.Misses += m
		out.UsedBytes += b
	}
	return out
}

// BusyMs returns accumulated per-processor busy time — the Figure 2
// measurement.
func (e *DocEngine) BusyMs() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.busyMs...)
}

// ResetBusy clears the busy-load accounting.
func (e *DocEngine) ResetBusy() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := range e.busyMs {
		e.busyMs[i] = 0
	}
	e.queries = 0
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
	K           int
	Stats       StatsMode
	Selector    selection.Selector // nil = contact every partition
	SelectN     int                // partitions to contact when Selector is set
	Conjunctive bool
	// Pruning selects the disjunctive top-k strategy for this query;
	// rank.PruneNone (the zero value) defers to the engine's WithPruning
	// default. Rankings are identical across strategies — only the decode
	// work (and thus PostingBytesDecoded) changes.
	Pruning rank.Pruning
	// Threshold selects the scatter schedule for this query;
	// ThresholdDefault defers to the engine's WithThresholdSharing
	// default. Conjunctive queries always run a single wave (the AND
	// evaluator drives by intersection, not by threshold).
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
	var ckey string
	if e.rcache != nil {
		ckey = DocCacheKey(terms, opt)
		if hit, ok := e.rcache.Get(ckey); ok {
			// A hit answers at the broker: same ranked results, no
			// fan-out, so the work counters are genuinely zero and the
			// latency is one local lookup.
			qr := QueryResult{Results: hit.Results, FromCache: true, LatencyMs: e.cost.CacheHitMs}
			enforceDeadline(&qr, opt.DeadlineMs)
			return qr
		}
	}
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
	e.mu.Lock()
	e.queries++
	// tick is the fault-schedule clock: decision i of the injector's
	// timeline. Captured under the lock so every query sees a distinct,
	// reproducible tick regardless of worker interleaving.
	tick := int64(e.queries)
	live := targets[:0]
	for _, p := range targets {
		if e.downs[p] {
			qr.Degraded = true
			continue
		}
		live = append(live, p)
	}
	e.mu.Unlock()
	targets = live
	qr.ServersContacted = len(targets)
	if len(targets) == 0 {
		if e.rb != nil && e.rb.policy.Mode == FailFast && qr.Degraded {
			qr.Err = fmt.Errorf("all selected partitions down: %w", ErrUnavailable)
		}
		e.noteOutcome(&qr)
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
	shared := opt.Threshold == ThresholdShared && !opt.Conjunctive && len(targets) > 1
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
			// Level 2: serve encoded posting lists from the partition
			// server's cache when configured. The provider contract keeps
			// results and accounting byte-identical either way.
			var bind func(*index.Index) rank.PostingsProvider
			if e.pcaches != nil {
				bind = func(ix *index.Index) rank.PostingsProvider { return e.pcaches[p].Bind(ix) }
			}
			if opt.Conjunctive {
				evals[i].rs, evals[i].es = rank.EvaluateViewAND(views[p], bind, scorers[i], terms, opt.K)
			} else {
				evals[i].rs, evals[i].es = rank.EvaluateView(views[p], bind, scorers[i], terms, opt.K, opt.Pruning, waveSeed)
			}
		})
		var waveSlowest float64
		e.mu.Lock()
		for _, i := range ws {
			p := targets[i]
			es := evals[i].es
			service := e.cost.ServiceMs(es.PostingsDecoded)
			if e.rb != nil {
				// Robust path: the call's fate (retries, hedges, failover,
				// latency, or loss) is simulated deterministically from the
				// engine tick. A clean call costs exactly lanMs+service, so
				// with zero faults injected this path is byte-identical to
				// the plain one below.
				cr := e.rb.call(tick, p, e.lanMs, service, opt.DeadlineMs)
				qr.Retries += cr.retries
				qr.Hedges += cr.hedges
				if cr.latencyMs > waveSlowest {
					waveSlowest = cr.latencyMs
				}
				if !cr.ok {
					// The partition never answered within budget: its
					// contribution is lost and its server did no accountable
					// work for this query.
					e.rb.lost()
					lost++
					continue
				}
				e.busyMs[p] += service
			} else {
				e.busyMs[p] += service
				if t := e.lanMs + service; t > waveSlowest {
					waveSlowest = t
				}
			}
			//dwrlint:allow statsmerge:FinalThreshold the broker seeds later waves from its own merged heap, not the partitions' final thresholds
			qr.PostingsDecoded += es.PostingsDecoded
			qr.ListsAccessed += es.ListsAccessed
			qr.PostingBytesRead += es.BytesRead
			qr.PostingBytesDecoded += es.BytesDecoded
			qr.BytesTransferred += resultBytes(len(evals[i].rs))
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
	if lost > 0 || (qr.Degraded && e.rb != nil && e.rb.policy.Mode == FailFast) {
		if e.rb.policy.Mode == FailFast {
			qr.Err = fmt.Errorf("%d of %d partitions unavailable: %w", lost, len(targets), ErrUnavailable)
			qr.Results = nil
		} else {
			qr.Degraded = true
		}
	}
	enforceDeadline(&qr, opt.DeadlineMs)
	if e.rcache != nil && !qr.Degraded && qr.Err == nil {
		// Degraded answers are partial; caching them would keep serving
		// the partial ranking after the servers recover.
		e.rcache.Put(ckey, qr)
	}
	e.noteOutcome(&qr)
	return qr
}

// noteOutcome tallies degraded/failed answers for EngineStats.
func (e *DocEngine) noteOutcome(qr *QueryResult) {
	if qr.Err == nil && !qr.Degraded {
		return
	}
	e.mu.Lock()
	if qr.Err != nil {
		e.failed++
	} else {
		e.degraded++
	}
	e.mu.Unlock()
}
