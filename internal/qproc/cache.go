package qproc

import (
	"slices"
	"strconv"

	"dwr/internal/cache"
)

// ResultCacheConfig sizes the broker-level result cache.
type ResultCacheConfig struct {
	// Capacity is the total entry budget across the cache's eight
	// shards; <= 0 means no result cache.
	Capacity int
}

// ResultCache is the result-cache level of Section 5's hierarchy: a
// concurrency-safe cache of complete query results at the broker, in
// front of all partition fan-out. It is one eight-shard LRU
// (cache.Sharded); an entry lives until replacement evicts it or an
// index update or a topology change (SetDown) invalidates every entry at
// once — one atomic generation bump, no walk.
type ResultCache struct {
	c *cache.Sharded[QueryResult]
}

// NewResultCache builds a result cache of cfg.Capacity entries (at
// least one per shard).
func NewResultCache(cfg ResultCacheConfig) *ResultCache {
	return &ResultCache{c: cache.NewSharded[QueryResult](cfg.Capacity)}
}

// Get returns the cached result for key if present and generation-fresh.
func (rc *ResultCache) Get(key string) (QueryResult, bool) {
	e, ok := rc.c.Get(key)
	return e.Value, ok
}

// Put stores a result under the current generation. The broker cache
// keeps no clock, so every entry is stored at time 0.
func (rc *ResultCache) Put(key string, qr QueryResult) { rc.c.Put(key, qr, 0) }

// Invalidate lazily drops every cached entry (generation bump). Engines
// call this from segment-store change hooks and on SetDown.
func (rc *ResultCache) Invalidate() { rc.c.Invalidate() }

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

// Stats returns the accumulated lookup breakdown.
func (rc *ResultCache) Stats() CacheStats {
	h, m := rc.c.Stats()
	return CacheStats{Hits: h, Misses: m, StaleGen: rc.c.StaleMisses()}
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
