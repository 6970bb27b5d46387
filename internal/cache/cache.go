// Package cache implements the result caches of Section 5: the LRU the
// broker serves from (Sharded, eight locked LRU shards with generation
// invalidation), the LFU and static-dynamic cache (SDC, Fagni et al.)
// replacement policies experiment C10 replays a query log against, and
// timestamped entries so a coordinator can serve stale results while
// query processors are down — the paper's "upon query processor
// failures, the system returns cached results".
package cache

// Entry is a cached value with the virtual time it was stored at, so
// callers can distinguish fresh from stale answers.
type Entry[V any] struct {
	Value    V
	StoredAt float64
}

// Cache is a fixed-capacity key-value cache of query results.
type Cache[V any] interface {
	// Get returns the entry for key, if cached. It may update the
	// replacement state.
	Get(key string) (Entry[V], bool)
	// Put stores an entry for key at virtual time now.
	Put(key string, value V, now float64)
	// Len returns the number of cached entries.
	Len() int
	// Stats returns accumulated hits and misses.
	Stats() (hits, misses int)
}

// lruNode is a doubly-linked list node; we implement the list inline to
// keep per-entry overhead and allocation behaviour explicit.
type lruNode[V any] struct {
	key        string
	entry      Entry[V]
	prev, next *lruNode[V]
}

// LRU is a least-recently-used cache.
type LRU[V any] struct {
	cap          int
	m            map[string]*lruNode[V]
	head, tail   *lruNode[V] // head = most recent
	hits, misses int
}

// NewLRU creates an LRU cache with the given capacity (≥1).
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[V]{cap: capacity, m: make(map[string]*lruNode[V], capacity)}
}

// Get implements Cache.
func (c *LRU[V]) Get(key string) (Entry[V], bool) {
	n, ok := c.m[key]
	if !ok {
		c.misses++
		var zero Entry[V]
		return zero, false
	}
	c.hits++
	c.moveToFront(n)
	return n.entry, true
}

// Put implements Cache.
func (c *LRU[V]) Put(key string, value V, now float64) {
	if n, ok := c.m[key]; ok {
		n.entry = Entry[V]{Value: value, StoredAt: now}
		c.moveToFront(n)
		return
	}
	if len(c.m) >= c.cap {
		c.evict(c.tail)
	}
	n := &lruNode[V]{key: key, entry: Entry[V]{Value: value, StoredAt: now}}
	c.m[key] = n
	c.pushFront(n)
}

// Len implements Cache.
func (c *LRU[V]) Len() int { return len(c.m) }

// Stats implements Cache.
func (c *LRU[V]) Stats() (int, int) { return c.hits, c.misses }

func (c *LRU[V]) pushFront(n *lruNode[V]) {
	n.prev = nil
	n.next = c.head
	if c.head != nil {
		c.head.prev = n
	}
	c.head = n
	if c.tail == nil {
		c.tail = n
	}
}

func (c *LRU[V]) unlink(n *lruNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (c *LRU[V]) moveToFront(n *lruNode[V]) {
	if c.head == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

func (c *LRU[V]) evict(n *lruNode[V]) {
	if n == nil {
		return
	}
	c.unlink(n)
	delete(c.m, n.key)
}

// LFU is a least-frequently-used cache with LRU tiebreak, implemented
// with frequency buckets for O(1) operations.
type LFU[V any] struct {
	cap          int
	m            map[string]*lfuNode[V]
	buckets      map[int]*lfuList[V] // freq -> nodes at that freq
	minFreq      int
	hits, misses int
}

type lfuNode[V any] struct {
	key        string
	entry      Entry[V]
	freq       int
	prev, next *lfuNode[V]
}

type lfuList[V any] struct {
	head, tail *lfuNode[V]
}

func (l *lfuList[V]) pushFront(n *lfuNode[V]) {
	n.prev = nil
	n.next = l.head
	if l.head != nil {
		l.head.prev = n
	}
	l.head = n
	if l.tail == nil {
		l.tail = n
	}
}

func (l *lfuList[V]) unlink(n *lfuNode[V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		l.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		l.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

func (l *lfuList[V]) empty() bool { return l.head == nil }

// NewLFU creates an LFU cache with the given capacity (≥1).
func NewLFU[V any](capacity int) *LFU[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LFU[V]{cap: capacity, m: make(map[string]*lfuNode[V], capacity), buckets: make(map[int]*lfuList[V])}
}

// Get implements Cache.
func (c *LFU[V]) Get(key string) (Entry[V], bool) {
	n, ok := c.m[key]
	if !ok {
		c.misses++
		var zero Entry[V]
		return zero, false
	}
	c.hits++
	c.bump(n)
	return n.entry, true
}

// Put implements Cache.
func (c *LFU[V]) Put(key string, value V, now float64) {
	if n, ok := c.m[key]; ok {
		n.entry = Entry[V]{Value: value, StoredAt: now}
		c.bump(n)
		return
	}
	if len(c.m) >= c.cap {
		c.evictOne()
	}
	n := &lfuNode[V]{key: key, entry: Entry[V]{Value: value, StoredAt: now}, freq: 1}
	c.m[key] = n
	c.bucket(1).pushFront(n)
	c.minFreq = 1
}

// evictOne removes the least recently used node of the minimum frequency.
// minFreq may lag behind the true minimum (an eviction or bump emptied
// its bucket), so the scan walks upward; emptied buckets are deleted so
// the walk — and the buckets map — stay bounded by the number of live
// frequencies rather than every frequency ever reached.
func (c *LFU[V]) evictOne() {
	l := c.buckets[c.minFreq]
	for l == nil || l.empty() {
		delete(c.buckets, c.minFreq)
		c.minFreq++
		l = c.buckets[c.minFreq]
	}
	victim := l.tail
	l.unlink(victim)
	if l.empty() {
		// Reset the scan: the next eviction must not start from a bucket
		// that no longer exists, and the empty list must not leak.
		delete(c.buckets, c.minFreq)
		c.minFreq++
	}
	delete(c.m, victim.key)
}

func (c *LFU[V]) bucket(f int) *lfuList[V] {
	l, ok := c.buckets[f]
	if !ok {
		l = &lfuList[V]{}
		c.buckets[f] = l
	}
	return l
}

func (c *LFU[V]) bump(n *lfuNode[V]) {
	l := c.buckets[n.freq]
	l.unlink(n)
	if l.empty() {
		// Drop the emptied bucket; a hot key climbing the frequency
		// ladder must not leave one dead list per step behind it.
		delete(c.buckets, n.freq)
		if c.minFreq == n.freq {
			c.minFreq = n.freq + 1
		}
	}
	n.freq++
	c.bucket(n.freq).pushFront(n)
}

// Len implements Cache.
func (c *LFU[V]) Len() int { return len(c.m) }

// Stats implements Cache.
func (c *LFU[V]) Stats() (int, int) { return c.hits, c.misses }

// SDC is the static-dynamic cache: a read-only static section holding
// the historically most popular queries plus an LRU dynamic section for
// the rest. Fagni et al. showed this mix beats pure LRU/LFU on search
// logs because the popularity head is stable while the tail is bursty.
type SDC[V any] struct {
	static       map[string]Entry[V]
	staticKeys   map[string]bool
	dynamic      *LRU[V]
	hits, misses int
}

// NewSDC creates an SDC cache: staticKeys get permanent slots (filled on
// first Put), and the remaining capacity is a dynamic LRU. Total
// capacity = len(staticKeys) + dynamicCapacity.
func NewSDC[V any](staticKeys []string, dynamicCapacity int) *SDC[V] {
	sk := make(map[string]bool, len(staticKeys))
	for _, k := range staticKeys {
		sk[k] = true
	}
	return &SDC[V]{
		static:     make(map[string]Entry[V], len(sk)),
		staticKeys: sk,
		dynamic:    NewLRU[V](dynamicCapacity),
	}
}

// Get implements Cache.
func (c *SDC[V]) Get(key string) (Entry[V], bool) {
	if e, ok := c.static[key]; ok {
		c.hits++
		return e, true
	}
	if c.staticKeys[key] {
		// A static slot not yet filled: miss, but do not consult dynamic.
		c.misses++
		var zero Entry[V]
		return zero, false
	}
	e, ok := c.dynamic.Get(key)
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return e, ok
}

// Put implements Cache.
func (c *SDC[V]) Put(key string, value V, now float64) {
	if c.staticKeys[key] {
		c.static[key] = Entry[V]{Value: value, StoredAt: now}
		return
	}
	c.dynamic.Put(key, value, now)
}

// Len implements Cache.
func (c *SDC[V]) Len() int { return len(c.static) + c.dynamic.Len() }

// Stats implements Cache. SDC tracks its own hit/miss counters so the
// dynamic section's internal counters are not double-reported.
func (c *SDC[V]) Stats() (int, int) { return c.hits, c.misses }

// HitRatio is a convenience over any cache's stats.
func HitRatio[V any](c Cache[V]) float64 {
	h, m := c.Stats()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}
