package qproc

import (
	"sync"

	"dwr/internal/faultsim"
	"dwr/internal/rank"
)

// Option configures an engine at construction: pass options to
// NewDocEngine / NewLiveEngine / NewMultiSite after the positional
// arguments. DocEngine and LiveEngine take the engine options
// (WithResultCache, WithPruning, WithThresholdSharing, WithFaults) and
// ignore WithMediator; MultiSite reads only
// WithMediator. This is the one configuration surface — engines are
// immutable once built, apart from topology changes (SetDown) and cache
// invalidation.
type Option func(*engineOptions)

// engineOptions is the resolved construction-time configuration.
type engineOptions struct {
	rcCap     int
	policy    *FaultPolicy // WithFaults; nil = no fault runtime
	injector  *faultsim.Injector
	pruning   rank.Pruning
	threshold bool
	mediation *mediation
}

// mediation is WithMediator's configuration: the per-query site budget
// and the pruning-confidence floor.
type mediation struct {
	selectN       int
	minConfidence float64
}

// WithResultCache gives the engine a broker-level result cache of
// cfg.Capacity entries; a capacity <= 0 gives it none, overriding any
// ambient default. Degraded or failed answers are never cached.
func WithResultCache(cfg ResultCacheConfig) Option {
	return func(o *engineOptions) { o.rcCap = cfg.Capacity }
}

// WithPruning selects the engine's default top-k evaluation strategy
// for disjunctive queries: rank.PruneMaxScore (every engine's default)
// prunes dynamically over the resident per-term score bounds,
// rank.PruneNone evaluates exhaustively — the comparator an experiment
// names when it measures against unpruned evaluation. Pruned and
// exhaustive evaluation are rank-identical (see rank.EvaluateTopK); only
// the decode work differs, so brokers, caches, fault policy, and
// deadline propagation compose unchanged. A per-query
// DocQueryOptions.Pruning can only ask for MaxScore: its zero value,
// PruneNone, means the engine's setting, so exhaustive evaluation needs
// an engine built with WithPruning(rank.PruneNone).
func WithPruning(mode rank.Pruning) Option {
	return func(o *engineOptions) { o.pruning = mode }
}

// WithThresholdSharing sets whether threshold sharing is the engine's
// default for disjunctive queries (every engine's default is on):
// instead of one scatter wave over all partitions at threshold 0, the
// broker orders partitions by their resident query score upper bound,
// evaluates them in growing waves, seeds every wave after the first with
// its running k-th merged score, and skips partitions whose upper bound
// proves they hold no global top-k document. Results are rank-identical
// to single-wave evaluation (see rank.EvaluateView's seed for the safety
// contract); only the work — partitions contacted, blocks decoded —
// shrinks. WithThresholdSharing(false) names the single-wave comparator.
// A per-query DocQueryOptions.Threshold can only ask for sharing (its
// zero value means the engine's setting), so single-wave evaluation
// needs an engine built with WithThresholdSharing(false).
// MultiSite's site level ignores the option, though its site engines
// use their own setting for the per-site fan-out.
func WithThresholdSharing(on bool) Option {
	return func(o *engineOptions) { o.threshold = on }
}

// WithMediator puts the federated query mediator on the engine's serving
// path: MultiSite.QueryTopK and QueryTopKWithin take the QueryFederated
// route, where CORI over every site's collection statistics picks the
// site subset each query touches, with full fan-out as the
// confidence/fault fallback. selectN is the per-query site budget (<= 0
// picks a quarter of the up sites, at least one); below minConfidence
// (0 = never) a query falls back to full fan-out. Cache keys gain a
// `sel=` component naming the selected subset. DocEngine and LiveEngine
// ignore the option — their partitions are skipped rank-safely by
// threshold sharing instead.
func WithMediator(selectN int, minConfidence float64) Option {
	return func(o *engineOptions) { o.mediation = &mediation{selectN, minConfidence} }
}

// WithFaults puts the robustness policy p on the engine's partition
// calls — bounded retries with backoff across replicas, hedged backup
// requests, and the explicit fail-fast / best-effort degradation mode —
// with inj's deterministic fault schedule (see internal/faultsim) under
// them. A nil inj injects nothing: the policy then engages only on
// genuinely slow partitions, and the answers are byte-identical to a
// plain engine's.
func WithFaults(p FaultPolicy, inj *faultsim.Injector) Option {
	return func(o *engineOptions) { o.policy, o.injector = &p, inj }
}

// Ambient construction defaults: one option list applied to every
// engine constructed afterwards (including deep inside experiments or
// core). Only the benchmark harness (bench/) sets it; no command does.
var (
	defaultOptMu sync.Mutex
	defaultOpts  []Option
)

// SetDefaultOptions replaces the ambient default option list applied at
// the start of every engine construction (per-call options win); pass
// nothing to clear.
func SetDefaultOptions(opts ...Option) {
	defaultOptMu.Lock()
	defaultOpts = append([]Option(nil), opts...)
	defaultOptMu.Unlock()
}

// resolveOptions folds the ambient default options and the per-call
// options, in that order (later wins), over the one served
// configuration — MaxScore pruning with threshold sharing — into one
// resolved configuration.
func resolveOptions(opts []Option) engineOptions {
	eo := engineOptions{pruning: rank.PruneMaxScore, threshold: true}
	defaultOptMu.Lock()
	ambient := defaultOpts
	defaultOptMu.Unlock()
	for _, o := range ambient {
		o(&eo)
	}
	for _, o := range opts {
		o(&eo)
	}
	return eo
}

// resultCache materializes the configured result cache (nil = none).
func (o *engineOptions) resultCache() *ResultCache {
	if o.rcCap <= 0 {
		return nil
	}
	return NewResultCache(ResultCacheConfig{Capacity: o.rcCap})
}

// robust materializes the robustness runtime for an engine with k units
// (nil without WithFaults).
func (o *engineOptions) robust(k int) *robustness {
	if o.policy == nil {
		return nil
	}
	return newRobustness(*o.policy, o.injector, k)
}
