package qproc

import (
	"fmt"
	"strings"
	"sync/atomic"

	"dwr/internal/cache"
)

// CachePolicy selects the replacement policy of a ResultCache.
type CachePolicy int

// Result-cache replacement policies (Section 5; Fagni et al. for SDC).
const (
	CacheLRU CachePolicy = iota
	CacheLFU
	CacheSDC
)

// String implements fmt.Stringer.
func (p CachePolicy) String() string {
	switch p {
	case CacheLFU:
		return "lfu"
	case CacheSDC:
		return "sdc"
	default:
		return "lru"
	}
}

// ParseCachePolicy parses a policy name as exposed on CLI flags.
func ParseCachePolicy(s string) (CachePolicy, error) {
	switch strings.ToLower(s) {
	case "lru":
		return CacheLRU, nil
	case "lfu":
		return CacheLFU, nil
	case "sdc":
		return CacheSDC, nil
	default:
		return CacheLRU, fmt.Errorf("qproc: unknown cache policy %q (want lru | lfu | sdc)", s)
	}
}

// ResultCacheConfig sizes the broker-level result cache.
type ResultCacheConfig struct {
	// Capacity is the total entry budget across all shards.
	Capacity int
	// Shards is the number of lock domains (<= 0 picks 8). More shards
	// means less contention between concurrent broker goroutines.
	Shards int
	// Policy selects replacement; CacheSDC additionally pins StaticKeys.
	Policy CachePolicy
	// StaticKeys is the SDC static set: full cache keys (see the
	// engines' CacheKey methods) warmed from the head of a query-log
	// sample. Ignored by LRU/LFU.
	StaticKeys []string
	// TTLQueries bounds entry age, measured in cache lookups (the
	// engines' virtual clock advances one tick per Query). <= 0 means
	// entries never expire by age.
	TTLQueries int
}

// ResultCache is the result-cache level of Section 5's hierarchy: a
// concurrency-safe cache of complete query results at the broker, in
// front of all partition fan-out. Entries expire by age (TTLQueries) and
// are invalidated wholesale — one atomic generation bump, no walk — when
// an index update or a topology change (SetDown) makes them suspect.
type ResultCache struct {
	c       *cache.Sharded[QueryResult]
	ttl     int64
	tick    atomic.Int64
	expired atomic.Int64
}

// NewResultCache builds a result cache from cfg (zero values defaulted:
// capacity 1024, 8 shards, LRU).
func NewResultCache(cfg ResultCacheConfig) *ResultCache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	var sc *cache.Sharded[QueryResult]
	switch cfg.Policy {
	case CacheLFU:
		sc = cache.NewShardedLFU[QueryResult](cfg.Shards, cfg.Capacity)
	case CacheSDC:
		dyn := cfg.Capacity - len(cfg.StaticKeys)
		if dyn < 1 {
			dyn = 1
		}
		sc = cache.NewShardedSDC[QueryResult](cfg.Shards, cfg.StaticKeys, dyn)
	default:
		sc = cache.NewShardedLRU[QueryResult](cfg.Shards, cfg.Capacity)
	}
	return &ResultCache{c: sc, ttl: int64(cfg.TTLQueries)}
}

// Get returns the cached result for key if present, generation-fresh,
// and within the TTL. Every call advances the cache's virtual clock one
// tick.
func (rc *ResultCache) Get(key string) (QueryResult, bool) {
	now := rc.tick.Add(1)
	e, ok := rc.c.Get(key)
	if !ok {
		return QueryResult{}, false
	}
	if rc.ttl > 0 && float64(now)-e.StoredAt > float64(rc.ttl) {
		rc.expired.Add(1)
		return QueryResult{}, false
	}
	return e.Value, true
}

// Put stores a result under the current generation and clock tick.
func (rc *ResultCache) Put(key string, qr QueryResult) {
	rc.c.Put(key, qr, float64(rc.tick.Load()))
}

// Invalidate lazily drops every cached entry (generation bump). Engines
// call this from dynamic-index OnChange hooks and on SetDown.
func (rc *ResultCache) Invalidate() { rc.c.Invalidate() }

// Generation exposes the current invalidation generation.
func (rc *ResultCache) Generation() uint64 { return rc.c.Generation() }

// Len returns the number of resident entries (including lazily
// invalidated ones not yet replaced).
func (rc *ResultCache) Len() int { return rc.c.Len() }

// CacheStats breaks down result-cache lookups.
type CacheStats struct {
	Hits       int // fresh entries served
	Misses     int // not present, stale, or expired
	StaleGen   int // subset of Misses: present but generation-invalidated
	ExpiredTTL int // subset of Misses: present and fresh-generation but past TTL
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
	ex := int(rc.expired.Load())
	return CacheStats{
		Hits:       h - ex,
		Misses:     m + ex,
		StaleGen:   rc.c.StaleMisses(),
		ExpiredTTL: ex,
	}
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
	var b strings.Builder
	seen := make(map[string]bool, len(terms))
	for _, t := range terms {
		if seen[t] {
			continue
		}
		seen[t] = true
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(t)
	}
	return b.String()
}

// DocCacheKey is the full result-cache key of a DocEngine query: the
// normalized terms plus every option that changes the answer. A phrase
// keys its full ordered term list instead — repeating a term changes
// which documents match, so "a b a" must not share "a b"'s entry.
// Engines with a Selector assume it is deterministic and fixed for the
// cache's lifetime (true of all selectors in this repo).
func DocCacheKey(terms []string, opt DocQueryOptions) string {
	sel := 0
	if opt.Selector != nil && opt.SelectN > 0 {
		sel = opt.SelectN
	}
	q, ph := NormalizeQueryKey(terms), 0
	if opt.Phrase {
		q, ph = strings.Join(terms, " "), 1
	}
	// Threshold sharing is rank-identical, but it changes which
	// partitions a degraded answer can be missing, so differently
	// scheduled evaluations must not collide in the cache.
	return fmt.Sprintf("%s|k=%d|st=%d|ph=%d|sel=%d|pr=%d|ts=%d",
		q, opt.K, int(opt.Stats), ph, sel, int(opt.Pruning), int(opt.Threshold))
}

// TermCacheKey is the full result-cache key of a TermEngine query.
func TermCacheKey(terms []string, k int) string {
	return fmt.Sprintf("%s|k=%d", NormalizeQueryKey(terms), k)
}
