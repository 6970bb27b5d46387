// Package cache implements the least-recently-used cache both of
// Section 5's result caches are built on: qproc.ResultCache's eight
// locked shards at the broker, and each multi-site coordinator's cache,
// whose entries carry their own virtual time for stale serving.
package cache

// lruNode is a doubly-linked list node; we implement the list inline to
// keep per-entry overhead and allocation behaviour explicit.
type lruNode[V any] struct {
	key        string
	value      V
	prev, next *lruNode[V]
}

// LRU is a least-recently-used cache. It is not safe for concurrent
// use; callers hold their own lock.
type LRU[V any] struct {
	cap        int
	m          map[string]*lruNode[V]
	head, tail *lruNode[V] // head = most recent
}

// NewLRU creates an LRU cache with the given capacity (≥1).
func NewLRU[V any](capacity int) *LRU[V] {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU[V]{cap: capacity, m: make(map[string]*lruNode[V], capacity)}
}

// Get returns the value cached under key and marks it most recently
// used.
func (c *LRU[V]) Get(key string) (V, bool) {
	n, ok := c.m[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.moveToFront(n)
	return n.value, true
}

// Put stores value under key as the most recently used entry, evicting
// the least recently used one when the cache is full.
func (c *LRU[V]) Put(key string, value V) {
	if n, ok := c.m[key]; ok {
		n.value = value
		c.moveToFront(n)
		return
	}
	if len(c.m) >= c.cap {
		c.evict(c.tail)
	}
	n := &lruNode[V]{key: key, value: value}
	c.m[key] = n
	c.pushFront(n)
}

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
