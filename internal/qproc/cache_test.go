package qproc

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"

	"dwr/internal/index"
	"dwr/internal/partition"
)

// binPack4 builds a 4-server DF-balanced term partition over central's
// vocabulary.
func binPack4(central *index.Index) partition.TermPartition {
	return partition.BinPackTerms(central.Terms(), func(t string) float64 {
		return float64(central.DF(t))
	}, 4)
}

// TestResultCacheHitPath: a repeat query answers from the broker cache
// with the identical ranking, the FromCache flag, the flat cache-hit
// latency, and zero backend work.
func TestResultCacheHitPath(t *testing.T) {
	docs := corpus(45, 300, 200)
	e := newDocEngine(t, docs, 4, WithResultCache(ResultCacheConfig{Capacity: 64, Shards: 4}))
	q := []string{"w0001", "w0003"}
	opt := DocQueryOptions{K: 10, Stats: GlobalTwoRound}
	first := e.Query(q, opt)
	if first.FromCache {
		t.Fatal("cold query reported FromCache")
	}
	second := e.Query(q, opt)
	if !second.FromCache {
		t.Fatal("repeat query missed the result cache")
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("cached ranking differs from computed ranking")
	}
	if second.LatencyMs != DefaultCostModel().CacheHitMs {
		t.Fatalf("hit latency %v, want CacheHitMs %v", second.LatencyMs, DefaultCostModel().CacheHitMs)
	}
	if second.PostingsDecoded != 0 || second.ServersContacted != 0 || second.Rounds != 0 || second.BytesTransferred != 0 {
		t.Fatalf("hit did backend work: %+v", second)
	}
	st := e.ResultCache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("cache stats %+v, want 1 hit 1 miss", st)
	}
	// Different K or mode must not share an entry.
	other := e.Query(q, DocQueryOptions{K: 5, Stats: GlobalTwoRound})
	if other.FromCache {
		t.Fatal("k=5 hit the k=10 entry")
	}
	if len(other.Results) > 5 {
		t.Fatalf("k=5 returned %d results", len(other.Results))
	}
}

// TestResultCacheDegradedNotCached: partial answers under failures never
// enter the cache, and SetDown invalidates what is already there.
func TestResultCacheDegradedNotCached(t *testing.T) {
	docs := corpus(46, 300, 200)
	e := newDocEngine(t, docs, 4, WithResultCache(ResultCacheConfig{Capacity: 64, Shards: 4}))
	q := []string{"w0002"}
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed}
	e.Query(q, opt) // cached, full answer
	e.SetDown(0, true)
	after := e.Query(q, opt)
	if after.FromCache {
		t.Fatal("SetDown did not invalidate the result cache")
	}
	if !after.Degraded {
		t.Fatal("expected a degraded answer with partition 0 down")
	}
	again := e.Query(q, opt)
	if again.FromCache {
		t.Fatal("degraded answer was cached")
	}
	e.SetDown(0, false)
	healed := e.Query(q, opt)
	if healed.FromCache || healed.Degraded {
		t.Fatalf("recovery must recompute a full answer: %+v", healed)
	}
	if st := e.ResultCache().Stats(); st.StaleGen == 0 {
		t.Fatalf("generation invalidation left no stale-miss trace: %+v", st)
	}
}

// TestResultCacheTTLExpiry: entries older than TTLQueries ticks of the
// cache's virtual clock are re-evaluated.
func TestResultCacheTTLExpiry(t *testing.T) {
	docs := corpus(47, 200, 150)
	e := newDocEngine(t, docs, 2, WithResultCache(ResultCacheConfig{Capacity: 64, Shards: 2, TTLQueries: 5}))
	q := []string{"w0001"}
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed}
	e.Query(q, opt)
	if !e.Query(q, opt).FromCache {
		t.Fatal("immediate repeat missed")
	}
	for i := 0; i < 10; i++ { // advance the clock past the TTL
		e.Query([]string{fmt.Sprintf("w%04d", 10+i)}, opt)
	}
	if e.Query(q, opt).FromCache {
		t.Fatal("entry served past its TTL")
	}
	if st := e.ResultCache().Stats(); st.ExpiredTTL == 0 {
		t.Fatalf("no TTL expiry recorded: %+v", st)
	}
}

// TestResultCacheSDCBeatsLRUOnEngine replays one Zipfian stream through
// two identically sized broker caches; the SDC cache, with its static
// section warmed from the head of a log sample, must out-hit pure LRU —
// the Fagni et al. result at the engine level.
func TestResultCacheSDCBeatsLRUOnEngine(t *testing.T) {
	docs := corpus(48, 300, 300)
	queries := zipfQueries(49, 6000, 300)
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed}

	// Warm the static set from the head (first third) of the stream.
	sample := queries[:2000]
	counts := make(map[string]int, len(sample))
	for _, q := range sample {
		counts[DocCacheKey(q, opt)]++
	}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	const capTotal = 128
	static := keys
	if len(static) > capTotal/2 {
		static = static[:capTotal/2]
	}

	run := func(cfg ResultCacheConfig) CacheStats {
		e := newDocEngine(t, docs, 4, WithResultCache(cfg))
		for _, q := range queries {
			e.Query(q, opt)
		}
		return e.ResultCache().Stats()
	}
	lru := run(ResultCacheConfig{Capacity: capTotal, Shards: 4, Policy: CacheLRU})
	sdc := run(ResultCacheConfig{Capacity: capTotal, Shards: 4, Policy: CacheSDC, StaticKeys: static})
	if sdc.HitRatio() <= lru.HitRatio() {
		t.Fatalf("SDC hit ratio %.3f not above LRU %.3f", sdc.HitRatio(), lru.HitRatio())
	}
}

// TestConcurrentCachedQueries hammers a cache-enabled engine from many
// goroutines under -race: sharded result cache and interleaved
// invalidations.
func TestConcurrentCachedQueries(t *testing.T) {
	docs := corpus(50, 300, 200)
	e := newDocEngine(t, docs, 4,
		WithResultCache(ResultCacheConfig{Capacity: 256, Shards: 8, Policy: CacheLFU}))
	queries := zipfQueries(51, 40, 200)
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed}
	want := make([]QueryResult, len(queries))
	for i, q := range queries {
		want[i] = e.Query(q, opt)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				qi := (g + i) % len(queries)
				got := e.Query(queries[qi], opt)
				if !reflect.DeepEqual(got.Results, want[qi].Results) {
					t.Errorf("query %d: ranking changed under concurrency", qi)
					return
				}
				if g == 0 && i%50 == 49 {
					e.ResultCache().Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	if st := e.ResultCache().Stats(); st.Hits == 0 {
		t.Fatal("result cache never hit under load")
	}
}

// TestTermEngineResultCache: the pipelined engine's broker cache serves
// repeats with identical rankings.
func TestTermEngineResultCache(t *testing.T) {
	docs := corpus(52, 200, 150)
	central := centralIndex(docs)
	e, err := NewTermEngine(index.DefaultOptions(), docs, binPack4(central),
		WithResultCache(ResultCacheConfig{Capacity: 32, Shards: 2}))
	if err != nil {
		t.Fatal(err)
	}
	q := []string{"w0002", "w0005"}
	first := e.Query(q, 10)
	second := e.Query(q, 10)
	if !second.FromCache {
		t.Fatal("repeat query missed")
	}
	if !reflect.DeepEqual(first.Results, second.Results) {
		t.Fatal("cached ranking differs")
	}
}

func TestCacheKeyNormalization(t *testing.T) {
	a := NormalizeQueryKey([]string{"b", "a", "b", "a"})
	if a != "b a" {
		t.Fatalf("dedup key = %q, want first-occurrence order", a)
	}
	opt := DocQueryOptions{K: 10}
	if DocCacheKey([]string{"a", "b"}, opt) == DocCacheKey([]string{"b", "a"}, opt) {
		t.Fatal("permutations must NOT share a key (float accumulation order differs)")
	}
	if DocCacheKey([]string{"a"}, DocQueryOptions{K: 10}) == DocCacheKey([]string{"a"}, DocQueryOptions{K: 20}) {
		t.Fatal("k must be part of the key")
	}
	// Phrases key their full ordered term list: "a b a" is not "a b".
	ph := DocQueryOptions{K: 10, Phrase: true}
	keys := map[string]bool{
		DocCacheKey([]string{"a", "b"}, ph):      true,
		DocCacheKey([]string{"b", "a"}, ph):      true,
		DocCacheKey([]string{"a", "b", "a"}, ph): true,
		DocCacheKey([]string{"a", "b"}, opt):     true,
	}
	if len(keys) != 4 {
		t.Fatalf("phrases a b, b a, a b a and OR a b share keys: %v", keys)
	}
	if TermCacheKey([]string{"a"}, 10) == TermCacheKey([]string{"a"}, 20) {
		t.Fatal("k must be part of the term-engine key")
	}
}

func TestParseCachePolicy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want CachePolicy
	}{{"lru", CacheLRU}, {"LFU", CacheLFU}, {"sdc", CacheSDC}} {
		got, err := ParseCachePolicy(tc.in)
		if err != nil || got != tc.want {
			t.Fatalf("ParseCachePolicy(%q) = %v, %v", tc.in, got, err)
		}
	}
	if _, err := ParseCachePolicy("arc"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
