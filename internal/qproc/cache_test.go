package qproc

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"dwr/internal/index"
	"dwr/internal/rank"
	"dwr/internal/selection"
)

// TestResultCacheHitPath: a repeat query answers from the broker cache
// with the identical ranking, the FromCache flag, the flat cache-hit
// latency, and zero backend work.
func TestResultCacheHitPath(t *testing.T) {
	docs := corpus(45, 300, 200)
	e := newDocEngine(t, docs, 4, WithResultCache(ResultCacheConfig{Capacity: 64}))
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
	if second.LatencyMs != cacheHitMs {
		t.Fatalf("hit latency %v, want cacheHitMs %v", second.LatencyMs, cacheHitMs)
	}
	if second.PostingsDecoded != 0 || second.ServersContacted != 0 || second.BytesTransferred != 0 {
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
	e := newDocEngine(t, docs, 4, WithResultCache(ResultCacheConfig{Capacity: 64}))
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

// TestConcurrentCachedQueries hammers a cache-enabled engine from many
// goroutines under -race: sharded result cache and interleaved
// invalidations.
func TestConcurrentCachedQueries(t *testing.T) {
	docs := corpus(50, 300, 200)
	e := newDocEngine(t, docs, 4,
		WithResultCache(ResultCacheConfig{Capacity: 256}))
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

func TestResultCacheBasics(t *testing.T) {
	rc := NewResultCache(ResultCacheConfig{Capacity: 64})
	a := []rank.Result{{Doc: 1, Score: 2.5}}
	rc.Put("a", QueryResult{Results: a, LatencyMs: 3})
	rc.Put("b", QueryResult{Results: []rank.Result{{Doc: 2}}})
	if got, ok := rc.Get("a"); !ok || !reflect.DeepEqual(got, a) {
		t.Fatalf("Get(a) = %v, %v", got, ok)
	}
	if _, ok := rc.Get("missing"); ok {
		t.Fatal("phantom hit")
	}
	if st := rc.Stats(); st != (CacheStats{Hits: 1, Misses: 1}) {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
}

// TestResultCacheRoutingIsStable: the same key always lands on the same
// shard. With one slot per shard, distinct keys on distinct shards all
// survive — which also holds a capacity below the shard count to one
// entry per shard.
func TestResultCacheRoutingIsStable(t *testing.T) {
	for _, capacity := range []int{numShards, 1} {
		rc := NewResultCache(ResultCacheConfig{Capacity: capacity})
		byShard := make(map[int]string)
		for i := 0; i < 200 && len(byShard) < numShards; i++ {
			k := fmt.Sprintf("key%d", i)
			sh := shardOf(k)
			if _, taken := byShard[sh]; !taken {
				byShard[sh] = k
				rc.Put(k, QueryResult{})
			}
		}
		if len(byShard) < 4 {
			t.Fatalf("FNV routed 200 keys onto only %d of %d shards", len(byShard), numShards)
		}
		for _, k := range byShard {
			if _, ok := rc.Get(k); !ok {
				t.Fatalf("capacity %d: key %s lost despite exclusive shard slot", capacity, k)
			}
		}
	}
}

func TestResultCacheGenerationInvalidation(t *testing.T) {
	rc := NewResultCache(ResultCacheConfig{Capacity: 16})
	rc.Put("q", QueryResult{Results: []rank.Result{{Doc: 7}}})
	if _, ok := rc.Get("q"); !ok {
		t.Fatal("fresh entry missing")
	}
	rc.Invalidate()
	if _, ok := rc.Get("q"); ok {
		t.Fatal("stale-generation entry served as a hit")
	}
	if st := rc.Stats(); st != (CacheStats{Hits: 1, Misses: 1, StaleGen: 1}) {
		t.Fatalf("stats = %+v, want the stale lookup counted as a StaleGen miss", st)
	}
	// A new Put under the current generation makes the key live again.
	rc.Put("q", QueryResult{Results: []rank.Result{{Doc: 8}}})
	if got, ok := rc.Get("q"); !ok || got[0].Doc != 8 {
		t.Fatalf("re-put after invalidation = %v, %v", got, ok)
	}
}

func TestResultCacheAggregatedStats(t *testing.T) {
	rc := NewResultCache(ResultCacheConfig{Capacity: 32})
	for i := 0; i < 20; i++ {
		rc.Put(fmt.Sprintf("k%d", i), QueryResult{})
	}
	hits, misses := 0, 0
	for i := 0; i < 40; i++ {
		if _, ok := rc.Get(fmt.Sprintf("k%d", i)); ok {
			hits++
		} else {
			misses++
		}
	}
	st := rc.Stats()
	if st.Hits != hits || st.Misses != misses || st.StaleGen != 0 {
		t.Fatalf("aggregated stats %+v, observed %d/%d", st, hits, misses)
	}
	if r := st.HitRatio(); r <= 0 || r >= 1 {
		t.Fatalf("hit ratio %v out of range", r)
	}
}

// TestResultCacheConcurrent exercises the per-shard locking under -race:
// many goroutines hammering overlapping key ranges with interleaved
// invalidations must neither race nor lose the cache invariants.
func TestResultCacheConcurrent(t *testing.T) {
	rc := NewResultCache(ResultCacheConfig{Capacity: 256})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				q := (g*31 + i) % 100
				k := fmt.Sprintf("q%d", q)
				if got, ok := rc.Get(k); ok {
					if len(got) != 1 || got[0].Doc != q {
						t.Errorf("cached %v for %s", got, k)
						return
					}
					continue
				}
				rc.Put(k, QueryResult{Results: []rank.Result{{Doc: q}}})
				if i%500 == 0 && g == 0 {
					rc.Invalidate()
				}
			}
		}(g)
	}
	wg.Wait()
	// Every surviving fresh entry must still map key qN -> doc N.
	for q := 0; q < 100; q++ {
		if got, ok := rc.Get(fmt.Sprintf("q%d", q)); ok && (len(got) != 1 || got[0].Doc != q) {
			t.Fatalf("corrupted entry q%d -> %v", q, got)
		}
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
}

// fmtDocCacheKey and fmtQueryKey are the keys as fmt.Sprintf and a dedup
// map wrote them; the golden test holds the byte-appending keys to them.
func fmtQueryKey(terms []string) string {
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

func fmtDocCacheKey(terms []string, opt DocQueryOptions) string {
	sel := 0
	if opt.Selector != nil && opt.SelectN > 0 {
		sel = opt.SelectN
	}
	q, ph := fmtQueryKey(terms), 0
	if opt.Phrase {
		q, ph = strings.Join(terms, " "), 1
	}
	return fmt.Sprintf("%s|k=%d|st=%d|ph=%d|sel=%d|pr=%d|ts=%d",
		q, opt.K, int(opt.Stats), ph, sel, int(opt.Pruning), int(opt.Threshold))
}

// TestCacheKeyGolden: the keys are byte-identical to their fmt forms over
// repeated terms, phrases, a selector, and every Stats, Pruning and
// Threshold value — a cache warmed under one form answers the other.
func TestCacheKeyGolden(t *testing.T) {
	sel := selection.NewCORI([]index.Stats{{NumDocs: 1, DF: map[string]int{"a": 1}}})
	queries := [][]string{nil, {"a"}, {"b", "a", "b", "a"}, {"", "x", ""}, {"w0001", "w0003", "w0001"},
		{strings.Repeat("long", 40), "tail"}}
	n := 0
	for _, q := range queries {
		if got, want := NormalizeQueryKey(q), fmtQueryKey(q); got != want {
			t.Fatalf("NormalizeQueryKey(%q) = %q, want %q", q, got, want)
		}
		for _, st := range []StatsMode{GlobalTwoRound, GlobalPrecomputed, LocalOnly} {
			for _, pr := range []rank.Pruning{rank.PruneNone, rank.PruneMaxScore} {
				for _, ts := range []ThresholdMode{ThresholdDefault, ThresholdShared} {
					for _, s := range []struct {
						sel selection.Selector
						n   int
					}{{nil, 0}, {nil, 3}, {sel, 0}, {sel, 3}} {
						for _, ph := range []bool{false, true} {
							opt := DocQueryOptions{K: 10 + n%3, Stats: st, Selector: s.sel, SelectN: s.n,
								Phrase: ph, Pruning: pr, Threshold: ts, DeadlineMs: float64(n % 2)}
							if got, want := DocCacheKey(q, opt), fmtDocCacheKey(q, opt); got != want {
								t.Fatalf("DocCacheKey(%q, %+v) = %q, want %q", q, opt, got, want)
							}
							n++
						}
					}
				}
			}
		}
	}
}

// TestCacheKeyAllocations: a key costs one allocation, the string itself.
func TestCacheKeyAllocations(t *testing.T) {
	q := []string{"w0001", "w0003", "w0001", "w0042"}
	opt := DocQueryOptions{K: 10, Stats: GlobalPrecomputed, Pruning: rank.PruneMaxScore, Threshold: ThresholdShared}
	for name, f := range map[string]func(){
		"DocCacheKey":        func() { DocCacheKey(q, opt) },
		"DocCacheKey phrase": func() { DocCacheKey(q, DocQueryOptions{K: 10, Phrase: true}) },
		"NormalizeQueryKey":  func() { NormalizeQueryKey(q) },
	} {
		if n := testing.AllocsPerRun(100, f); n > 1 {
			t.Errorf("%s allocates %v times; want at most 1", name, n)
		}
	}
}
