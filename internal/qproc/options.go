package qproc

import (
	"sync"

	"dwr/internal/faultsim"
	"dwr/internal/rank"
)

// Option configures an engine at construction. The same options apply
// to DocEngine, LiveEngine, TermEngine, and MultiSite (options that do
// not apply to an engine kind are ignored): pass them to NewDocEngine /
// NewLiveEngine / NewTermEngine / NewMultiSite after the positional
// arguments. This is
// the one configuration surface — engines are immutable once built,
// apart from topology changes (SetDown) and cache invalidation.
type Option func(*engineOptions)

// engineOptions is the resolved construction-time configuration.
type engineOptions struct {
	rcCap     int
	policy    *FaultPolicy
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
// for disjunctive queries: rank.PruneMaxScore (LiveEngine's default)
// enables dynamic pruning over the resident per-term score bounds,
// rank.PruneNone (every other engine's default) evaluates exhaustively.
// Pruned and
// exhaustive evaluation are rank-identical (see rank.EvaluateTopK); only
// the decode work differs, so brokers, caches, fault policy, and
// deadline propagation compose unchanged. Per-query DocQueryOptions.
// Pruning overrides this default. Engines without a disjunctive
// document-at-a-time path (TermEngine) ignore it.
func WithPruning(mode rank.Pruning) Option {
	return func(o *engineOptions) { o.pruning = mode }
}

// WithThresholdSharing makes threshold sharing the DocEngine's default
// for disjunctive queries: instead of one scatter wave over all
// partitions at threshold 0, the broker orders partitions by their
// resident query score upper bound, evaluates them in growing waves,
// seeds every wave after the first with its running k-th merged score,
// and skips partitions whose upper bound proves they hold no global
// top-k document. Results are rank-identical to single-wave evaluation
// (see rank.EvaluateView's seed for the safety contract); only the
// work — partitions contacted, blocks decoded — shrinks. Per-query
// DocQueryOptions.Threshold overrides the default; engines without a
// bound-ordered scatter (TermEngine, and MultiSite's site level) ignore
// the option, though MultiSite site engines configured with it use it
// for the per-site fan-out.
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
// `sel=` component naming the selected subset. Engines without a
// federated scatter (DocEngine, LiveEngine, TermEngine) ignore the
// option — their partitions are skipped rank-safely by threshold
// sharing instead.
func WithMediator(selectN int, minConfidence float64) Option {
	return func(o *engineOptions) { o.mediation = &mediation{selectN, minConfidence} }
}

// WithFaultPolicy activates the robustness policy on the engine's
// partition/site calls: per-query deadline budgets, bounded retries
// with backoff across replicas, hedged backup requests, and the
// explicit fail-fast / best-effort degradation mode. Combine with
// WithInjector to exercise the policy under injected faults; without an
// injector the policy only engages on genuinely slow partitions (and an
// all-zero policy leaves results byte-identical to a plain engine).
func WithFaultPolicy(p FaultPolicy) Option {
	return func(o *engineOptions) {
		pp := p.normalized()
		o.policy = &pp
	}
}

// WithInjector wires a deterministic fault-injection layer (see
// internal/faultsim) under the engine's partition/site calls. If no
// FaultPolicy was configured, DefaultFaultPolicy() applies.
func WithInjector(in *faultsim.Injector) Option {
	return func(o *engineOptions) { o.injector = in }
}

// Ambient construction defaults: a single option list CLIs set once so
// every engine constructed afterwards (including deep inside
// experiments or core) starts from the same configuration.
var (
	defaultOptMu sync.Mutex
	defaultOpts  []Option
)

// SetDefaultOptions replaces the ambient default option list applied at
// the start of every engine construction (per-call options win).
// Command-line tools call this once from their flags; pass nothing to
// clear.
func SetDefaultOptions(opts ...Option) {
	defaultOptMu.Lock()
	defaultOpts = append([]Option(nil), opts...)
	defaultOptMu.Unlock()
}

// resolveOptions folds the engine kind's own defaults, the ambient
// default options and the per-call options, in that order (later wins),
// into one resolved configuration.
func resolveOptions(opts []Option, kindDefaults ...Option) engineOptions {
	var eo engineOptions
	defaultOptMu.Lock()
	ambient := defaultOpts
	defaultOptMu.Unlock()
	for _, o := range kindDefaults {
		o(&eo)
	}
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
// (nil when no fault options were given).
func (o *engineOptions) robust(k int) *robustness {
	if o.policy == nil && o.injector == nil {
		return nil
	}
	p := DefaultFaultPolicy()
	if o.policy != nil {
		p = *o.policy
	}
	return newRobustness(p, o.injector, k)
}
