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
	"strings"

	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/qproc"
	"dwr/internal/querylog"
	"dwr/internal/randx"
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
// answer queries. The engine keeps the crawl's report (CrawlInfo) but
// not its Crawler; a caller that recrawls takes a Corpus from Crawl.
func Build(cfg Config) (*Engine, error) {
	if cfg.Partitions <= 0 {
		cfg.Partitions = 1
	}
	c, err := Crawl(cfg)
	if err != nil {
		return nil, err
	}
	c.Crawler = nil
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
		// Co-cluster documents by the queries of a generated training
		// log that retrieve them on a central index.
		lcfg := querylog.DefaultConfig()
		lcfg.Seed = cfg.Seed + 13
		lcfg.Total = trainQueries
		lcfg.Distinct = trainQueries / 8
		central, err := index.Build(cfg.Index, e.Docs)
		if err != nil {
			return err
		}
		res, sel := selection.Train(rng, querylog.Generate(e.Web, lcfg).Queries, central, ids, cfg.Partitions)
		e.Partition, e.Selector = res.Partition, sel
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
// the query engine is constructed with: the result cache.
func (e *Engine) engineOptions() []qproc.Option {
	if c := e.Config.Cache.Capacity; c > 0 {
		return []qproc.Option{qproc.WithResultCache(qproc.ResultCacheConfig{Capacity: c})}
	}
	return nil
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
		out[i] = SearchResult{URL: e.URLOf(r.Doc), Doc: r.Doc, Score: r.Score}
	}
	return out
}
