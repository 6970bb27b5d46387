package qproc

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"dwr/internal/conc"
	"dwr/internal/index"
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
// caching — is the same code for both. Faults reach it one way,
// WithFaults; a deadline one way, the query's own (QueryTopKWithin,
// DocQueryOptions.DeadlineMs), whose remainder bounds each wave's
// partition calls.
//
// The scatter-gather is real: a wave's partition evaluations fan out
// onto the processors the other in-flight queries leave idle (at most
// GOMAXPROCS), and run inline when none is idle; the broker aggregates
// per-partition results serially at the gather point, so results and
// all accounting are byte-identical to the serial broker (GOMAXPROCS=1).
// The engine is safe for concurrent Query calls: the partition indexes
// are immutable concurrent-reader structures and the busy-load
// accounting is guarded by a mutex taken only at the gather.
type DocEngine struct {
	// inflight counts the queries inside evaluate; it caps the fan-out
	// to the processors they leave idle (idleWidth).
	inflight atomic.Int64
	mu       sync.Mutex
	busyMs   []float64 // per partition
	// evaluated counts the queries that missed the result cache and is
	// the fault-schedule clock: a hit consults no partition, so it must
	// not move the injector's timeline. hits counts the rest, off the
	// lock — a hit never takes mu. Accepted queries are the two together.
	evaluated        int
	hits             atomic.Int64
	degraded, failed int
	// rcache is the broker-level result cache (WithResultCache); nil
	// when none was configured.
	rcache *ResultCache
	// rb is the robustness runtime (retry/hedge policy over the
	// fault-injection layer); nil without WithFaults.
	rb *robustness
	// sources yield each partition's current view.
	sources []func() *index.Manifest
	// parts, global and precomputed exist only on engines built from
	// documents: the partition indexes, the statistics of the whole
	// collection precomputed from them (GlobalPrecomputed), and each
	// partition's scorer over those statistics, built once with the
	// partition's length-norm table (rank.WithNorms).
	parts       []*index.Index
	global      index.Stats
	precomputed []*rank.Scorer
	downs       []bool // SetDown marks, guarded by mu
	// pruning is the top-k strategy for disjunctive queries
	// (WithPruning); a query's DocQueryOptions.Pruning can only ask for
	// MaxScore on an engine built exhaustive.
	pruning rank.Pruning
	// threshold enables the bound-ordered wave schedule
	// (WithThresholdSharing); a query's DocQueryOptions.Threshold can
	// only ask for sharing on an engine built single-wave.
	threshold bool
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
//	    WithResultCache(ResultCacheConfig{Capacity: 4096}),
//	    WithFaults(DefaultFaultPolicy(), inj))
//
// — applied on top of the ambient defaults (SetDefaultOptions) and the
// served configuration every engine starts from: MaxScore pruning with
// threshold sharing. An experiment that measures against exhaustive
// single-wave evaluation names it: WithPruning(rank.PruneNone),
// WithThresholdSharing(false).
func NewDocEngine(opts index.Options, docs []index.Doc, dp partition.DocPartition, options ...Option) (*DocEngine, error) {
	eo := resolveOptions(options)
	// Each partition's builder takes its documents in docs order; the K
	// partitions are inverted side by side.
	members := make([][]int, dp.K)
	for i, d := range docs {
		if p, ok := dp.Assign[d.Ext]; ok {
			members[p] = append(members[p], i)
		}
	}
	parts, err := index.BuildAll(opts, dp.K, func(p int, b *index.MemBuilder) (int, error) {
		for _, i := range members[p] {
			if err := b.AddDocument(docs[i].Ext, docs[i].Terms); err != nil {
				return i, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	sources := make([]func() *index.Manifest, len(parts))
	for i, ix := range parts {
		v := index.ViewOf(ix)
		sources[i] = func() *index.Manifest { return v }
	}
	stats := make([]index.Stats, len(parts))
	conc.Do(len(parts), 0, func(i int) {
		stats[i] = parts[i].LocalStats(nil)
	})
	e := newDocBroker(eo, sources)
	e.parts = parts
	e.global = index.MergeStats(stats...)
	if e.global.NumDocs == 0 {
		return nil, fmt.Errorf("qproc: document partition covers no documents")
	}
	global := rank.NewScorer(rank.FromGlobal(e.global))
	e.precomputed = make([]*rank.Scorer, len(parts))
	for p, ix := range parts {
		e.precomputed[p] = global.WithNorms(ix)
	}
	e.topkStats = GlobalPrecomputed
	return e, nil
}

// newDocBroker builds the engine around its partition sources:
// everything that does not depend on where the partitions' postings live.
func newDocBroker(eo engineOptions, sources []func() *index.Manifest) *DocEngine {
	return &DocEngine{
		busyMs:    make([]float64, len(sources)),
		rcache:    eo.resultCache(),
		rb:        eo.robust(len(sources)),
		sources:   sources,
		downs:     make([]bool, len(sources)),
		pruning:   eo.pruning,
		threshold: eo.threshold,
	}
}

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
// failure scenarios prefer WithFaults and faultsim outage windows
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
	// without being contacted. Rank-identical to the single wave, the
	// classic scatter-gather over all target partitions at threshold 0.
	ThresholdShared
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
	// Pruning can ask for MaxScore on this query; rank.PruneNone (the
	// zero value) means the engine's WithPruning setting, so a query
	// cannot ask for exhaustive evaluation: that takes an engine built
	// with WithPruning(rank.PruneNone). Rankings are identical across
	// strategies — only the decode work (and thus PostingBytesDecoded)
	// changes.
	Pruning rank.Pruning
	// Threshold can ask for threshold sharing on this query;
	// ThresholdDefault (the zero value) means the engine's
	// WithThresholdSharing setting, so a query cannot ask for a single
	// wave: that takes an engine built with WithThresholdSharing(false).
	// Phrase queries always run a single wave (the phrase evaluator
	// takes no seed, and rank.QueryBound bounds disjunctive scores only).
	Threshold ThresholdMode
	// DeadlineMs, when > 0, is the query's latency budget: under
	// WithFaults, what is left of it when a wave is dispatched bounds
	// every partition call of that wave, and an answer that would still
	// arrive later than the budget is dropped
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

// queryScratch is evaluate's pooled per-query working set: the views,
// and per target slot its partition, scorer, bound, schedule position
// and answer, the wave being dispatched, and the merger's buffers. Nothing
// in it outlives the query — the merger's Results copy out — and release
// clears the pointer slots, so a pooled scratch pins no manifest, scorer
// or partition answer.
type queryScratch struct {
	views   []*index.Manifest
	targets []int
	scorers []*rank.Scorer
	order   []int
	bounds  []float64
	evals   []partEval
	ws      []int
	merger  rank.TopKMerger
}

var queryPool = sync.Pool{New: func() any { return new(queryScratch) }}

// resize returns s at length n, reusing its storage. Reused slots keep
// old values until written.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

func (sc *queryScratch) release() {
	clear(sc.views)
	clear(sc.scorers)
	clear(sc.evals)
	queryPool.Put(sc)
}

// wave evaluates the target slots in sc.ws, each into its own evals
// slot, on up to width goroutines; a width of 1 runs the wave inline on
// the query's own goroutine and allocates nothing for it.
func (sc *queryScratch) wave(width int, terms []string, phrase bool, k int, mode rank.Pruning, seed float64) {
	if width <= 1 {
		for _, i := range sc.ws {
			sc.eval(i, terms, phrase, k, mode, seed)
		}
		return
	}
	conc.Do(len(sc.ws), width, func(j int) { sc.eval(sc.ws[j], terms, phrase, k, mode, seed) })
}

// eval evaluates target slot i's partition view with its scorer.
func (sc *queryScratch) eval(i int, terms []string, phrase bool, k int, mode rank.Pruning, seed float64) {
	v, s, ev := sc.views[sc.targets[i]], sc.scorers[i], &sc.evals[i]
	if phrase {
		ev.rs, ev.es = rank.EvaluateViewPhrase(v, s, terms, k)
	} else {
		ev.rs, ev.es = rank.EvaluateView(v, s, terms, k, mode, seed)
	}
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
	// pattern as Pruning), so the key names the schedule that ran: a
	// single-wave comparator leaves the zero value in place.
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
	e.inflight.Add(1)
	defer e.inflight.Add(-1)
	sc := queryPool.Get().(*queryScratch)
	defer sc.release()

	// Snapshot every partition before statistics or evaluation: the
	// answer is a pure function of the views captured here, however many
	// manifests their stores swap in while it is being computed.
	sc.views = resize(sc.views, len(e.sources))
	views := sc.views
	for p, src := range e.sources {
		views[p] = src()
	}

	// Choose target partitions.
	targets := sc.targets[:0]
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
	sc.targets = targets
	down -= len(targets)
	qr.ServersContacted = len(targets)
	if len(targets) == 0 {
		e.degrade(&qr, down, down, opt.DeadlineMs)
		return qr
	}

	// Scorers. Statistics loops read resident metadata and run inline;
	// only round 1 of the two-round protocol is charged as a message
	// round.
	sc.scorers = resize(sc.scorers, len(targets))
	scorers := sc.scorers
	var round1Max float64
	switch opt.Stats {
	case GlobalTwoRound:
		parts := make([]index.Stats, len(targets))
		for i, p := range targets {
			parts[i] = views[p].LocalStats(terms)
		}
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
		round1Max = lanMs
	case GlobalPrecomputed:
		for i, p := range targets {
			scorers[i] = e.precomputed[p]
		}
	default: // LocalOnly
		for i, p := range targets {
			scorers[i] = rank.NewScorer(rank.FromGlobal(views[p].LocalStats(terms)))
		}
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
	sc.order = resize(sc.order, len(targets))
	order := sc.order
	for i := range order {
		order[i] = i
	}
	var bounds []float64
	if shared {
		sc.bounds = resize(sc.bounds, len(targets))
		bounds = sc.bounds
		for i, p := range targets {
			bounds[i] = rank.QueryBound(views[p], scorers[i], terms)
		}
		// Descending bound; ties by ascending partition index keep the
		// schedule deterministic at any worker width.
		slices.SortFunc(order, func(i, j int) int {
			if c := cmp.Compare(bounds[j], bounds[i]); c != 0 {
				return c
			}
			return cmp.Compare(targets[i], targets[j])
		})
	}

	// Each worker writes only its own evals slot. Every wave's gather
	// books its calls serially in schedule order under the engine lock,
	// then sums and merges the answered slots after releasing it: integer
	// sums and a total-order merge do not depend on order, so results and
	// accounting are identical to the serial broker.
	sc.evals = resize(sc.evals, len(targets))
	evals := sc.evals
	merger := &sc.merger
	merger.Reset(opt.K)
	var slowest float64 // summed per-wave slowest-call latencies
	budget := math.Inf(1)
	lost, dispatched := 0, 0
	waveSize := len(targets)
	if shared {
		waveSize = thresholdFirstWave
	}
	for next := 0; next < len(order); {
		seed := 0.0
		if shared {
			if t, ok := merger.Threshold(); ok {
				seed = t
			}
		}
		ws := sc.ws[:0]
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
		sc.ws = ws
		if len(ws) == 0 {
			continue
		}
		qr.Waves++
		dispatched += len(ws)
		sc.wave(e.idleWidth(), terms, opt.Phrase, opt.K, opt.Pruning, seed)
		// A wave's calls get what the stats round and the earlier waves
		// left of the deadline; a spent budget times them out.
		if opt.DeadlineMs > 0 {
			budget = opt.DeadlineMs - round1Max - slowest
		}
		var waveSlowest float64
		answered := ws[:0] // the slots whose answer arrived
		e.mu.Lock()
		for _, i := range ws {
			ms, ok := e.call(tick, targets[i], serviceMs(evals[i].es.PostingsDecoded), budget, &qr)
			if ms > waveSlowest {
				waveSlowest = ms
			}
			if !ok {
				lost++
				continue
			}
			answered = append(answered, i)
		}
		e.mu.Unlock()
		for _, i := range answered {
			qr.addEval(evals[i].es, len(evals[i].rs))
			merger.Add(evals[i].rs)
		}
		slowest += waveSlowest
		if shared {
			waveSize *= 2
		}
	}
	qr.ServersContacted = dispatched
	qr.Results = merger.Results()
	qr.LatencyMs = round1Max + slowest + lanMs // stats round + eval waves + reply
	e.degrade(&qr, lost+down, len(targets)+down, opt.DeadlineMs)
	return qr
}
