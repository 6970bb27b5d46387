// Package dnssim models the DNS infrastructure the paper names as a
// frequent crawler bottleneck (Section 3, external factors): lookups are
// slow, the crawler does not control the servers it probes, and "a common
// solution is to cache DNS lookup results". The resolver charges a
// latency per authoritative lookup; the cache serves repeat lookups for
// the record's TTL at near-zero cost.
package dnssim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sync"

	"dwr/internal/randx"
)

// Resolver simulates an upstream DNS hierarchy. It answers every
// well-formed host name deterministically (the simulated Web's hosts all
// resolve) and charges a heavy-tailed latency per query.
type Resolver struct {
	mu            sync.Mutex
	rng           *rand.Rand
	baseLatencyMs float64
	queries       int
}

// NewResolver creates a resolver with the given median lookup latency.
func NewResolver(seed int64, baseLatencyMs float64) *Resolver {
	return &Resolver{rng: randx.New(seed), baseLatencyMs: baseLatencyMs}
}

// Record is a resolved DNS record.
type Record struct {
	Host string
	Addr string
	TTL  float64 // seconds the record may be cached
}

// Lookup resolves host, returning the record and the simulated latency
// in milliseconds of the authoritative query.
func (r *Resolver) Lookup(host string) (Record, float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.queries++
	lat := r.baseLatencyMs * randx.LogNormal(r.rng, 0, 0.8)
	h := fnv.New32a()
	h.Write([]byte(host))
	v := h.Sum32()
	rec := Record{
		Host: host,
		Addr: fmt.Sprintf("10.%d.%d.%d", (v>>16)&0xff, (v>>8)&0xff, v&0xff),
		TTL:  300,
	}
	return rec, lat
}

// Queries returns how many authoritative lookups the resolver served —
// the load metric for the DNS-bottleneck experiment.
func (r *Resolver) Queries() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.queries
}

// Cache is a TTL cache in front of a Resolver, keyed by host name.
// Time is virtual: callers pass the current time in seconds, which lets
// crawl experiments run at simulation speed.
type Cache struct {
	mu       sync.Mutex
	resolver *Resolver
	entries  map[string]cacheEntry
	hits     int
	misses   int
}

type cacheEntry struct {
	rec     Record
	expires float64
}

// NewCache wraps resolver with an empty cache.
func NewCache(resolver *Resolver) *Cache {
	return &Cache{resolver: resolver, entries: make(map[string]cacheEntry)}
}

// Lookup resolves host at virtual time now (seconds), consulting the
// cache first. It returns the record and the latency charged (≈0 for a
// hit, the resolver's latency for a miss).
func (c *Cache) Lookup(host string, now float64) (Record, float64) {
	c.mu.Lock()
	if e, ok := c.entries[host]; ok && e.expires > now {
		c.hits++
		c.mu.Unlock()
		return e.rec, 0.05 // in-memory hit cost
	}
	c.misses++
	c.mu.Unlock()

	rec, lat := c.resolver.Lookup(host)

	c.mu.Lock()
	c.entries[host] = cacheEntry{rec: rec, expires: now + rec.TTL}
	c.mu.Unlock()
	return rec, lat
}

// Stats returns cache hits and misses so far.
func (c *Cache) Stats() (hits, misses int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
