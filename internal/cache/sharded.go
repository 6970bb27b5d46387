package cache

import (
	"sync"
	"sync/atomic"
)

// numShards is Sharded's fixed lock-domain count.
const numShards = 8

// stamped pairs a cached value with the generation it was stored under,
// so that invalidation is a single atomic counter bump: entries written
// under an older generation are treated as misses and lazily
// overwritten, with no walk over the shards.
type stamped[V any] struct {
	value V
	gen   uint64
}

// shard is one lock domain of a Sharded cache. Hit/miss/stale counters
// live per shard, under the same mutex as its LRU, so the hot path takes
// exactly one lock and Stats aggregates lazily.
type shard[V any] struct {
	mu                  sync.Mutex
	lru                 *LRU[stamped[V]]
	hits, misses, stale int
}

// Sharded is the concurrency-safe cache: keys are hash-routed to one of
// eight independently locked LRU shards, so concurrent brokers contend
// only when their queries land on the same shard. It implements Cache[V]
// itself and adds generation-based invalidation (Invalidate), the hook
// index updates and topology changes use to drop every cached result
// without stopping the world.
type Sharded[V any] struct {
	shards [numShards]shard[V]
	gen    atomic.Uint64
}

// NewSharded creates a sharded LRU whose total capacity is split evenly
// across the shards, rounding up so the aggregate never falls below the
// requested total (and every shard holds at least one entry).
func NewSharded[V any](capacity int) *Sharded[V] {
	s := &Sharded[V]{}
	for i := range s.shards {
		s.shards[i].lru = NewLRU[stamped[V]]((capacity + numShards - 1) / numShards)
	}
	return s
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

// Get implements Cache. An entry stored under an older generation is
// reported as a miss (and counted as stale); it stays in the shard until
// replacement evicts it or a Put overwrites it — invalidation is lazy.
func (s *Sharded[V]) Get(key string) (Entry[V], bool) {
	sh := &s.shards[shardOf(key)]
	gen := s.gen.Load()
	sh.mu.Lock()
	e, ok := sh.lru.Get(key)
	if ok && e.Value.gen != gen {
		sh.stale++
		ok = false
	}
	if ok {
		sh.hits++
	} else {
		sh.misses++
	}
	sh.mu.Unlock()
	if !ok {
		var zero Entry[V]
		return zero, false
	}
	return Entry[V]{Value: e.Value.value, StoredAt: e.StoredAt}, true
}

// Put implements Cache, stamping the entry with the current generation.
func (s *Sharded[V]) Put(key string, value V, now float64) {
	sh := &s.shards[shardOf(key)]
	gen := s.gen.Load()
	sh.mu.Lock()
	sh.lru.Put(key, stamped[V]{value: value, gen: gen}, now)
	sh.mu.Unlock()
}

// Len implements Cache: total entries across shards, including
// not-yet-replaced stale ones.
func (s *Sharded[V]) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.lru.Len()
		sh.mu.Unlock()
	}
	return n
}

// Stats implements Cache: hits and misses aggregated across shards.
// Stale lookups count as misses (see StaleMisses for the breakdown).
func (s *Sharded[V]) Stats() (hits, misses int) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// StaleMisses returns how many lookups found an entry from an older
// generation — misses that a fresh Put will convert back into hits.
func (s *Sharded[V]) StaleMisses() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += sh.stale
		sh.mu.Unlock()
	}
	return n
}

// Invalidate bumps the generation counter: every entry stored before the
// call is lazily treated as a miss from now on. O(1), safe to call from
// index-update hooks while readers are in flight.
func (s *Sharded[V]) Invalidate() { s.gen.Add(1) }
