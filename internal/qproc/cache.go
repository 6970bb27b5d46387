package qproc

import (
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"dwr/internal/cache"
	"dwr/internal/rank"
)

// ResultCacheConfig sizes the broker-level result cache.
type ResultCacheConfig struct {
	// Capacity is the total entry budget across the cache's eight
	// shards; <= 0 means no result cache.
	Capacity int
}

// ResultCache is the result-cache level of Section 5's hierarchy: a
// concurrency-safe cache of complete query results at the broker, in
// front of all partition fan-out. Keys are routed by FNV-1a to one of
// eight independently locked LRU shards, so concurrent brokers contend
// only when their queries land on the same shard. An entry lives until
// replacement evicts it or an index update or a topology change
// (SetDown) invalidates every entry at once — one atomic generation
// bump, no walk.
type ResultCache struct {
	shards [numShards]rcShard
	gen    atomic.Uint64
}

// numShards is the result cache's fixed lock-domain count.
const numShards = 8

// rcShard is one lock domain. Its counters live under the same mutex as
// its LRU, so a lookup takes exactly one lock and Stats aggregates
// lazily.
type rcShard struct {
	mu  sync.Mutex
	lru *cache.LRU[stamped]
	st  CacheStats
}

// stamped is one cached answer: the result list, the only part a hit
// reads, and the generation it was stored under. An entry of an older
// generation is a miss and is lazily overwritten.
type stamped struct {
	results []rank.Result
	gen     uint64
}

// NewResultCache builds a result cache of cfg.Capacity entries, split
// evenly across the shards and rounded up, so the total never falls
// below the request and every shard holds at least one entry.
func NewResultCache(cfg ResultCacheConfig) *ResultCache {
	rc := &ResultCache{}
	for i := range rc.shards {
		rc.shards[i].lru = cache.NewLRU[stamped]((cfg.Capacity + numShards - 1) / numShards)
	}
	return rc
}

// shardOf routes a key to a shard with FNV-1a.
func shardOf(key string) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return int(h % numShards)
}

// Get returns the results cached under key if present and
// generation-fresh. An entry of an older generation is a miss, counted
// as StaleGen; it stays in its shard until replacement evicts it or a
// Put overwrites it.
func (rc *ResultCache) Get(key string) ([]rank.Result, bool) {
	sh := &rc.shards[shardOf(key)]
	gen := rc.gen.Load()
	sh.mu.Lock()
	e, ok := sh.lru.Get(key)
	switch {
	case !ok:
		sh.st.Misses++
	case e.gen != gen:
		sh.st.Misses++
		sh.st.StaleGen++
		ok = false
	default:
		sh.st.Hits++
	}
	sh.mu.Unlock()
	if !ok {
		return nil, false
	}
	return e.results, true
}

// Put stores qr's results under the current generation.
func (rc *ResultCache) Put(key string, qr QueryResult) {
	sh := &rc.shards[shardOf(key)]
	gen := rc.gen.Load()
	sh.mu.Lock()
	sh.lru.Put(key, stamped{results: qr.Results, gen: gen})
	sh.mu.Unlock()
}

// Invalidate lazily drops every cached entry (generation bump). Engines
// call this from segment-store change hooks and on SetDown; it is O(1)
// and safe while readers are in flight.
func (rc *ResultCache) Invalidate() { rc.gen.Add(1) }

// CacheStats breaks down result-cache lookups.
type CacheStats struct {
	Hits     int // fresh entries served
	Misses   int // not present, or stale
	StaleGen int // subset of Misses: present but generation-invalidated
}

// HitRatio returns Hits / (Hits + Misses), 0 when idle.
func (s CacheStats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

// Stats returns the lookup breakdown accumulated over every shard.
func (rc *ResultCache) Stats() CacheStats {
	var st CacheStats
	for i := range rc.shards {
		sh := &rc.shards[i]
		sh.mu.Lock()
		st.Hits += sh.st.Hits
		st.Misses += sh.st.Misses
		st.StaleGen += sh.st.StaleGen
		sh.mu.Unlock()
	}
	return st
}

// NormalizeQueryKey canonicalizes a term list for cache keying: terms
// are deduplicated to their first occurrence but NOT sorted. Sorting
// would let permutations share an entry, but evaluation accumulates
// floating-point scores in term order, so a permutation's results can
// differ in the last bits — and the cache must return byte-identical
// results to an uncached evaluation of the same term list. (Query-log
// keys are already sorted upstream, so in practice permutations rarely
// reach the engines.)
func NormalizeQueryKey(terms []string) string {
	var buf [keyBuf]byte
	return string(appendQueryKey(buf[:0], terms))
}

// keyBuf is the stack buffer a key is written into; a key that outgrows
// it costs one more allocation.
const keyBuf = 128

// appendQueryKey appends NormalizeQueryKey's form of terms to b. The
// dedup scans the query's own prefix, as rank.QueryBound does, so
// nothing is allocated.
func appendQueryKey(b []byte, terms []string) []byte {
	start := len(b)
	for i, t := range terms {
		if slices.Contains(terms[:i], t) {
			continue
		}
		if len(b) > start {
			b = append(b, ' ')
		}
		b = append(b, t...)
	}
	return b
}

// appendField appends "|name=v" to b.
func appendField(b []byte, name string, v int) []byte {
	b = append(append(append(b, '|'), name...), '=')
	return strconv.AppendInt(b, int64(v), 10)
}

// DocCacheKey is the full result-cache key of a DocEngine query: the
// normalized terms plus every option that changes the answer. A phrase
// keys its full ordered term list instead — repeating a term changes
// which documents match, so "a b a" must not share "a b"'s entry.
// Engines with a Selector assume it is deterministic and fixed for the
// cache's lifetime (true of all selectors in this repo). The key is
// written into one stack buffer and costs one allocation, the string.
func DocCacheKey(terms []string, opt DocQueryOptions) string {
	sel := 0
	if opt.Selector != nil && opt.SelectN > 0 {
		sel = opt.SelectN
	}
	var buf [keyBuf]byte
	b, ph := buf[:0], 0
	if opt.Phrase {
		for i, t := range terms {
			if i > 0 {
				b = append(b, ' ')
			}
			b = append(b, t...)
		}
		ph = 1
	} else {
		b = appendQueryKey(b, terms)
	}
	b = appendField(b, "k", opt.K)
	b = appendField(b, "st", int(opt.Stats))
	b = appendField(b, "ph", ph)
	b = appendField(b, "sel", sel)
	// Threshold sharing is rank-identical, but it changes which
	// partitions a degraded answer can be missing, so differently
	// scheduled evaluations must not collide in the cache.
	b = appendField(b, "pr", int(opt.Pruning))
	b = appendField(b, "ts", int(opt.Threshold))
	return string(b)
}
