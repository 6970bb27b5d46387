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
	workers    int
	rcCfg      *ResultCacheConfig
	rcInstance *ResultCache
	policy     *FaultPolicy
	injector   *faultsim.Injector
	pruning    rank.Pruning
	threshold  bool
	mediator   Mediator
}

// WithWorkers sets the engine's fan-out width: partition evaluations
// (and index construction) run on up to n goroutines. n = 1 is the
// serial broker, n <= 0 means GOMAXPROCS. Results and accounting are
// identical at any width.
func WithWorkers(n int) Option {
	return func(o *engineOptions) {
		if n < 0 {
			n = 0
		}
		o.workers = n
	}
}

// WithResultCache gives the engine a broker-level result cache built
// from cfg. Degraded or failed answers are never cached.
func WithResultCache(cfg ResultCacheConfig) Option {
	return func(o *engineOptions) {
		c := cfg
		c.StaticKeys = append([]string(nil), cfg.StaticKeys...)
		o.rcCfg = &c
		o.rcInstance = nil
	}
}

// WithResultCacheInstance installs a prebuilt (possibly pre-warmed)
// result cache; nil explicitly disables the result cache, overriding
// any ambient default.
func WithResultCacheInstance(rc *ResultCache) Option {
	return func(o *engineOptions) {
		o.rcInstance = rc
		o.rcCfg = nil
	}
}

// WithPruning selects the engine's default top-k evaluation strategy
// for disjunctive queries: rank.PruneMaxScore enables dynamic pruning
// over the resident per-term score bounds, rank.PruneNone (the default)
// evaluates exhaustively. Pruned and
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

// WithMediator puts a federated query mediator on the engine's serving
// path: MultiSite.QueryTopK and QueryTopKWithin take the QueryFederated
// route (collection selection picks the site subset each query touches,
// with full fan-out as the confidence/fault fallback). The mediator must
// be deterministic for fixed statistics; cache keys gain a `sel=`
// component naming the selected subset. Engines without a federated
// scatter (DocEngine, LiveEngine, TermEngine) ignore the option — their
// partitions are skipped rank-safely by threshold sharing instead.
// Passing nil disables mediation, overriding any ambient default.
func WithMediator(m Mediator) Option {
	return func(o *engineOptions) { o.mediator = m }
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

// resolveOptions folds the ambient default options and the per-call
// options (per-call wins) into one resolved configuration.
func resolveOptions(opts []Option) engineOptions {
	var eo engineOptions
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
	if o.rcInstance != nil {
		return o.rcInstance
	}
	if o.rcCfg != nil {
		return NewResultCache(*o.rcCfg)
	}
	return nil
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
