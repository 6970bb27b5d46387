package cache

import (
	"fmt"
	"sync"
	"testing"
)

func TestShardedBasics(t *testing.T) {
	s := NewSharded[int](64)
	s.Put("a", 1, 10)
	s.Put("b", 2, 11)
	if e, ok := s.Get("a"); !ok || e.Value != 1 || e.StoredAt != 10 {
		t.Fatalf("Get(a) = %+v, %v", e, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("phantom hit")
	}
	if s.Len() != 2 {
		t.Fatalf("len = %d", s.Len())
	}
	h, m := s.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d, want 1/1", h, m)
	}
}

func TestShardedRoutingIsStable(t *testing.T) {
	// The same key must always land on the same shard: with per-shard
	// capacity 1, distinct keys on distinct shards must all survive.
	s := NewSharded[int](numShards)
	byShard := make(map[int]string)
	for i := 0; i < 200 && len(byShard) < numShards; i++ {
		k := fmt.Sprintf("key%d", i)
		sh := shardOf(k)
		if _, taken := byShard[sh]; !taken {
			byShard[sh] = k
			s.Put(k, i, 0)
		}
	}
	if len(byShard) < 4 {
		t.Fatalf("FNV routed 200 keys onto only %d of %d shards", len(byShard), numShards)
	}
	for _, k := range byShard {
		if _, ok := s.Get(k); !ok {
			t.Fatalf("key %s lost despite exclusive shard slot", k)
		}
	}
}

func TestShardedGenerationInvalidation(t *testing.T) {
	s := NewSharded[int](16)
	s.Put("q", 7, 0)
	if _, ok := s.Get("q"); !ok {
		t.Fatal("fresh entry missing")
	}
	s.Invalidate()
	if _, ok := s.Get("q"); ok {
		t.Fatal("stale-generation entry served as a hit")
	}
	if s.StaleMisses() != 1 {
		t.Fatalf("stale misses = %d, want 1", s.StaleMisses())
	}
	// A new Put under the current generation makes the key live again.
	s.Put("q", 8, 1)
	if e, ok := s.Get("q"); !ok || e.Value != 8 {
		t.Fatalf("re-put after invalidation = %+v, %v", e, ok)
	}
}

func TestShardedAggregatedStats(t *testing.T) {
	s := NewSharded[int](32)
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%d", i), i, 0)
	}
	hits, misses := 0, 0
	for i := 0; i < 40; i++ {
		if _, ok := s.Get(fmt.Sprintf("k%d", i)); ok {
			hits++
		} else {
			misses++
		}
	}
	gh, gm := s.Stats()
	if gh != hits || gm != misses {
		t.Fatalf("aggregated stats %d/%d, observed %d/%d", gh, gm, hits, misses)
	}
	if r := HitRatio[int](s); r <= 0 || r >= 1 {
		t.Fatalf("hit ratio %v out of range", r)
	}
}

// TestShardedConcurrent exercises the per-shard locking under -race:
// many goroutines hammering overlapping key ranges with interleaved
// invalidations must neither race nor lose the cache invariants.
func TestShardedConcurrent(t *testing.T) {
	s := NewSharded[string](256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprintf("q%d", (g*31+i)%100)
				if e, ok := s.Get(k); ok {
					if e.Value == "" {
						t.Errorf("empty cached value for %s", k)
						return
					}
					continue
				}
				s.Put(k, "result:"+k, float64(i))
				if i%500 == 0 && g == 0 {
					s.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	// Every surviving fresh entry must still map key -> result:key.
	for i := 0; i < 100; i++ {
		k := fmt.Sprintf("q%d", i)
		if e, ok := s.Get(k); ok && e.Value != "result:"+k {
			t.Fatalf("corrupted entry %s -> %s", k, e.Value)
		}
	}
}

func TestShardedImplementsCache(t *testing.T) {
	var _ Cache[int] = NewSharded[int](16)
	var _ Cache[[]byte] = NewSharded[[]byte](4)
}
