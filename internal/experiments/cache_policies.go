package experiments

import (
	"dwr/internal/cache"
	"dwr/internal/querylog"
)

// keyCache is a replacement policy C10 replays a query log against. It
// keeps keys only: the replay stores no answers, so a lookup that finds
// its key is a hit.
type keyCache interface {
	// has reports whether key is cached, updating the replacement state.
	has(key string) bool
	// add caches key, evicting by the policy when full.
	add(key string)
}

// replay runs queries through c in arrival order, caching each miss, and
// returns the hit ratio (0 for an empty log).
func replay(c keyCache, queries []querylog.Query) float64 {
	hits := 0
	for _, q := range queries {
		if c.has(q.Key) {
			hits++
		} else {
			c.add(q.Key)
		}
	}
	if len(queries) == 0 {
		return 0
	}
	return float64(hits) / float64(len(queries))
}

// lru is the served policy, cache.LRU, holding keys.
type lru struct{ c *cache.LRU[struct{}] }

func newLRU(capacity int) lru { return lru{cache.NewLRU[struct{}](capacity)} }

func (l lru) has(key string) bool {
	_, ok := l.c.Get(key)
	return ok
}

func (l lru) add(key string) { l.c.Put(key, struct{}{}) }

// lfu is a least-frequently-used cache with LRU tiebreak, implemented
// with frequency buckets for O(1) operations.
type lfu struct {
	cap     int
	m       map[string]*lfuNode
	buckets map[int]*lfuList // freq -> nodes at that freq
	minFreq int
}

type lfuNode struct {
	key        string
	freq       int
	prev, next *lfuNode
}

type lfuList struct {
	head, tail *lfuNode
}

func (l *lfuList) pushFront(n *lfuNode) {
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

func (l *lfuList) unlink(n *lfuNode) {
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

func (l *lfuList) empty() bool { return l.head == nil }

// newLFU creates an LFU cache with the given capacity (≥1).
func newLFU(capacity int) *lfu {
	capacity = max(capacity, 1)
	return &lfu{cap: capacity, m: make(map[string]*lfuNode, capacity), buckets: make(map[int]*lfuList)}
}

func (c *lfu) has(key string) bool {
	n, ok := c.m[key]
	if ok {
		c.bump(n)
	}
	return ok
}

func (c *lfu) add(key string) {
	if n, ok := c.m[key]; ok {
		c.bump(n)
		return
	}
	if len(c.m) >= c.cap {
		c.evictOne()
	}
	n := &lfuNode{key: key, freq: 1}
	c.m[key] = n
	c.bucket(1).pushFront(n)
	c.minFreq = 1
}

// evictOne removes the least recently used node of the minimum frequency.
// minFreq may lag behind the true minimum (an eviction or bump emptied
// its bucket), so the scan walks upward; emptied buckets are deleted so
// the walk — and the buckets map — stay bounded by the number of live
// frequencies rather than every frequency ever reached.
func (c *lfu) evictOne() {
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

func (c *lfu) bucket(f int) *lfuList {
	l, ok := c.buckets[f]
	if !ok {
		l = &lfuList{}
		c.buckets[f] = l
	}
	return l
}

func (c *lfu) bump(n *lfuNode) {
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

// sdc is the static-dynamic cache: a read-only static section holding
// the historically most popular queries plus an LRU dynamic section for
// the rest. Fagni et al. showed this mix beats pure LRU/LFU on search
// logs because the popularity head is stable while the tail is bursty.
type sdc struct {
	static  map[string]bool // static key -> its slot is filled
	dynamic lru
}

// newSDC creates an SDC cache: staticKeys get permanent slots (filled on
// first add), and the remaining capacity is a dynamic LRU. Total
// capacity = len(staticKeys) + dynamicCapacity.
func newSDC(staticKeys []string, dynamicCapacity int) *sdc {
	static := make(map[string]bool, len(staticKeys))
	for _, k := range staticKeys {
		static[k] = false
	}
	return &sdc{static: static, dynamic: newLRU(dynamicCapacity)}
}

// has answers a static key from its slot alone — an unfilled slot is a
// miss that does not consult the dynamic section.
func (c *sdc) has(key string) bool {
	if filled, ok := c.static[key]; ok {
		return filled
	}
	return c.dynamic.has(key)
}

func (c *sdc) add(key string) {
	if _, ok := c.static[key]; ok {
		c.static[key] = true
		return
	}
	c.dynamic.add(key)
}
