package dnssim

import (
	"fmt"
	"sync"
	"testing"
)

func TestLookupCountsQueries(t *testing.T) {
	r := NewResolver(1, 50)
	for i := 0; i < 10; i++ {
		r.Lookup()
	}
	if r.Queries() != 10 {
		t.Fatalf("Queries() = %d, want 10", r.Queries())
	}
}

func TestLookupLatencyPositive(t *testing.T) {
	r := NewResolver(2, 50)
	for i := 0; i < 100; i++ {
		if _, lat := r.Lookup(); lat <= 0 {
			t.Fatalf("lookup latency %v not positive", lat)
		}
	}
}

func TestCacheHitsWithinTTL(t *testing.T) {
	r := NewResolver(1, 50)
	c := NewCache(r)
	_, lat1 := c.Lookup("h.example", 0)
	_, lat2 := c.Lookup("h.example", 10)
	if lat2 >= lat1 && lat1 > 1 {
		t.Fatalf("cache hit latency %v not below miss latency %v", lat2, lat1)
	}
	if r.Queries() != 1 {
		t.Fatalf("resolver saw %d queries, want 1", r.Queries())
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 1/1", h, m)
	}
}

func TestCacheExpiry(t *testing.T) {
	r := NewResolver(1, 50)
	c := NewCache(r)
	c.Lookup("h.example", 0)
	c.Lookup("h.example", 301) // past the 300 s TTL
	if r.Queries() != 2 {
		t.Fatalf("resolver saw %d queries, want 2 (TTL expired)", r.Queries())
	}
}

func TestHitRatio(t *testing.T) {
	r := NewResolver(1, 50)
	c := NewCache(r)
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatalf("empty cache stats = %d/%d, want 0/0", h, m)
	}
	c.Lookup("a.example", 0)
	for i := 0; i < 9; i++ {
		c.Lookup("a.example", 1)
	}
	if h, m := c.Stats(); h != 9 || m != 1 {
		t.Fatalf("stats = %d hits / %d misses, want 9/1 (hit ratio 0.9)", h, m)
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	r := NewResolver(1, 50)
	c := NewCache(r)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				c.Lookup(fmt.Sprintf("h%d.example", i%20), float64(i))
			}
		}(g)
	}
	wg.Wait()
	h, m := c.Stats()
	if h+m != 1600 {
		t.Fatalf("lookups recorded %d, want 1600", h+m)
	}
}
