// Package core wires the substrates into the complete distributed Web
// retrieval system the paper describes: a synthetic Web is crawled by
// distributed agents, the crawled pages are parsed and partitioned, the
// partitions are indexed, and queries are answered by a multi-site
// distributed query processor with caching and collection selection.
//
// It is the public facade the examples and command-line tools build on;
// the individual packages remain directly usable for finer-grained
// experiments.
package core

import (
	"fmt"
	"math/rand"
	"strings"

	"dwr/internal/crawler"
	"dwr/internal/faultsim"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/randx"
	"dwr/internal/rank"
	"dwr/internal/selection"
	"dwr/internal/simweb"
	"dwr/internal/textproc"
)

// PartitionStrategy selects how crawled documents are split across query
// processors.
type PartitionStrategy int

// Document partitioning strategies (Section 4).
const (
	// PartitionRandom assigns documents uniformly at random.
	PartitionRandom PartitionStrategy = iota
	// PartitionRoundRobin deals documents out in turn (balanced sizes).
	PartitionRoundRobin
	// PartitionKMeans clusters documents by topic (k-means on term
	// vectors).
	PartitionKMeans
	// PartitionQueryDriven co-clusters documents by the training queries
	// that retrieve them (Puppin et al.) and enables query-driven
	// collection selection.
	PartitionQueryDriven
)

// String implements fmt.Stringer.
func (s PartitionStrategy) String() string {
	switch s {
	case PartitionRandom:
		return "random"
	case PartitionRoundRobin:
		return "round-robin"
	case PartitionKMeans:
		return "k-means"
	case PartitionQueryDriven:
		return "query-driven"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// Config assembles a full engine. Zero values fall back to defaults.
type Config struct {
	Seed       int64
	Web        simweb.Config
	Crawl      crawler.Config
	Index      index.Options
	Partitions int
	Strategy   PartitionStrategy
	// Cache configures the broker result cache (disabled at zero
	// value).
	Cache CacheConfig
	// Faults, when non-nil, wires a deterministic fault-injection layer
	// and robustness policy under the query engine.
	Faults *FaultConfig
}

// FaultConfig describes the injected fault environment and the policy
// that answers it. All randomness derives from Seed, so a run is exactly
// reproducible.
type FaultConfig struct {
	Seed int64
	// FlakyP / SlowP / SlowMeanMs apply to every partition replica:
	// probabilistic error replies and log-normal latency spikes.
	FlakyP     float64
	SlowP      float64
	SlowMeanMs float64
	// CrashParts lists partitions whose every replica is permanently
	// dead.
	CrashParts []int
	// Windows adds partition-wide outage intervals keyed by query tick.
	Windows []faultsim.Window
	// Policy overrides qproc.DefaultFaultPolicy when non-nil.
	Policy *qproc.FaultPolicy
}

// Injector materializes the configured fault schedule.
func (f *FaultConfig) Injector() *faultsim.Injector {
	inj := faultsim.New(f.Seed)
	if f.FlakyP > 0 || f.SlowP > 0 {
		inj.Default(faultsim.Spec{FlakyP: f.FlakyP, SlowP: f.SlowP, SlowMeanMs: f.SlowMeanMs})
	}
	for _, p := range f.CrashParts {
		inj.Unit(p, faultsim.Spec{Crash: true})
	}
	for _, w := range f.Windows {
		inj.Window(w)
	}
	return inj
}

// CacheConfig sizes the engine's broker-level result cache.
type CacheConfig struct {
	// Capacity enables the broker result cache when > 0 (total entries).
	Capacity int
}

// DefaultConfig returns a laptop-scale end-to-end configuration.
func DefaultConfig() Config {
	web := simweb.DefaultConfig()
	web.Hosts = 80
	web.MaxPages = 60
	web.VocabSize = 3000
	return Config{
		Seed:       1,
		Web:        web,
		Crawl:      crawler.DefaultConfig(),
		Index:      index.DefaultOptions(),
		Partitions: 4,
		Strategy:   PartitionRoundRobin,
	}
}

// Engine is a built distributed Web retrieval system: the crawled
// corpus, partitioned and indexed.
type Engine struct {
	*Corpus
	Config    Config
	Partition partition.DocPartition
	Query     *qproc.DocEngine
	Selector  selection.Selector // non-nil when Strategy supports selection
}

// Build runs the offline half of the paper's pipeline — Crawl (crawl,
// parse), then partition and index — and returns an engine ready to
// answer queries.
func Build(cfg Config) (*Engine, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	c, err := Crawl(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{Corpus: c, Config: cfg}
	if err := e.partitionAndIndex(); err != nil {
		return nil, err
	}
	return e, nil
}

func (e *Engine) partitionAndIndex() error {
	cfg := e.Config
	rng := randx.New(cfg.Seed + 77)
	ids := index.DocIDs(e.Docs)
	switch cfg.Strategy {
	case PartitionRandom:
		e.Partition = partition.RandomDocs(rng, ids, cfg.Partitions)
	case PartitionKMeans:
		e.Partition = partition.KMeansDocs(rng, e.docVectors(), cfg.Partitions, 15)
	case PartitionQueryDriven:
		res, train, err := e.trainQueryDriven(rng)
		if err != nil {
			return err
		}
		e.Partition = res.Partition
		e.Selector = selection.NewQueryDriven(res, train)
	default:
		e.Partition = partition.RoundRobinDocs(ids, cfg.Partitions)
	}
	q, err := qproc.NewDocEngine(cfg.Index, e.Docs, e.Partition, e.engineOptions()...)
	if err != nil {
		return err
	}
	e.Query = q
	if e.Selector == nil {
		var stats []index.Stats
		for p := 0; p < q.K(); p++ {
			stats = append(stats, q.PartIndex(p).LocalStats(nil))
		}
		e.Selector = selection.NewCORI(stats)
	}
	return nil
}

// engineOptions folds the Config into the qproc functional-options list
// the query engine is constructed with: the result cache and the fault
// environment.
func (e *Engine) engineOptions() []qproc.Option {
	cfg := e.Config
	var opts []qproc.Option
	if cfg.Cache.Capacity > 0 {
		opts = append(opts, qproc.WithResultCache(qproc.ResultCacheConfig{Capacity: cfg.Cache.Capacity}))
	}
	if f := cfg.Faults; f != nil {
		opts = append(opts, qproc.WithInjector(f.Injector()))
		pol := qproc.DefaultFaultPolicy()
		if f.Policy != nil {
			pol = *f.Policy
		}
		opts = append(opts, qproc.WithFaultPolicy(pol))
	}
	return opts
}

// docVectors builds sparse term-ID vectors for k-means.
func (e *Engine) docVectors() []partition.DocVector {
	termID := make(map[string]int)
	vecs := make([]partition.DocVector, len(e.Docs))
	for i, d := range e.Docs {
		tf := make(map[int]float64)
		for _, t := range d.Terms {
			id, ok := termID[t]
			if !ok {
				id = len(termID)
				termID[t] = id
			}
			tf[id]++
		}
		vecs[i] = partition.DocVector{Ext: d.Ext, TF: tf}
	}
	return vecs
}

// trainQueries is the size of the training log PartitionQueryDriven
// co-clusters documents by.
const trainQueries = 4000

// trainQueryDriven generates a training log, evaluates it on a central
// index, and co-clusters documents by the queries that retrieve them.
func (e *Engine) trainQueryDriven(rng *rand.Rand) (partition.CoClusterResult, []partition.QueryDocs, error) {
	lcfg := querylog.DefaultConfig()
	lcfg.Seed = e.Config.Seed + 13
	lcfg.Total = trainQueries
	lcfg.Distinct = trainQueries / 8
	lg := querylog.Generate(e.Web, lcfg)

	central, err := index.Build(e.Config.Index, e.Docs)
	if err != nil {
		return partition.CoClusterResult{}, nil, err
	}
	scorer := rank.NewScorer(rank.FromIndex(central))

	seen := make(map[string]bool)
	var train []partition.QueryDocs
	for _, q := range lg.Queries {
		if seen[q.Key] {
			continue
		}
		seen[q.Key] = true
		rs, _ := rank.EvaluateOR(central, scorer, q.Terms, 20)
		docs := make([]int, len(rs))
		for i, r := range rs {
			docs[i] = r.Doc
		}
		train = append(train, partition.QueryDocs{Key: q.Key, Terms: q.Terms, Docs: docs})
	}
	res := partition.CoClusterDocs(rng, train, index.DocIDs(e.Docs), e.Config.Partitions, 15)
	return res, train, nil
}

// SearchResult is one answer to a user query.
type SearchResult struct {
	URL   string
	Doc   int
	Score float64
}

// SearchOptions tunes Search.
type SearchOptions struct {
	K       int
	SelectN int // contact only the best-N partitions (0 = all)
	// Phrase matches the query's tokens consecutively, ranked by phrase
	// frequency. Positions never leave a partition (§5's argument for
	// document partitioning under proximity search).
	Phrase bool
}

// Search answers a free-text query against the distributed engine using
// the two-round global-statistics protocol.
func (e *Engine) Search(query string, opt SearchOptions) []SearchResult {
	if opt.K <= 0 {
		opt.K = 10
	}
	terms := textproc.Tokenize(strings.ToLower(query))
	if len(terms) == 0 {
		return nil
	}
	qopt := qproc.DocQueryOptions{K: opt.K, Stats: qproc.GlobalTwoRound, Phrase: opt.Phrase}
	if opt.SelectN > 0 {
		qopt.Selector = e.Selector
		qopt.SelectN = opt.SelectN
	}
	qr := e.Query.Query(terms, qopt)
	out := make([]SearchResult, len(qr.Results))
	for i, r := range qr.Results {
		out[i] = SearchResult{URL: e.urls[r.Doc], Doc: r.Doc, Score: r.Score}
	}
	return out
}
