package experiments

import (
	"fmt"
	"math/rand"
	"testing"

	"dwr/internal/querylog"
	"dwr/internal/randx"
)

func TestLFUKeepsFrequent(t *testing.T) {
	c := newLFU(2)
	c.add("hot")
	for i := 0; i < 5; i++ {
		c.has("hot")
	}
	c.add("warm")
	c.add("cold") // must evict warm (freq 1), not hot (freq 6)
	if !c.has("hot") {
		t.Fatal("hot evicted despite high frequency")
	}
	if c.has("warm") {
		t.Fatal("warm should have been evicted")
	}
}

func TestLFUTiebreakLRU(t *testing.T) {
	c := newLFU(2)
	c.add("a")
	c.add("b")
	c.has("b") // b now freq 2
	c.add("c") // evicts a, the only key of the minimum frequency 1
	if c.has("a") {
		t.Fatal("a should have been evicted")
	}
	if !c.has("b") {
		t.Fatal("b should survive")
	}
}

// TestLFUMinFreqWalk pins the eviction scan directly: after the hottest
// key empties its frequency bucket via bump, and after evictions empty
// the minimum bucket, the walk must still find the true minimum-
// frequency victim, and the buckets map must not accumulate one dead
// list per frequency ever reached.
func TestLFUMinFreqWalk(t *testing.T) {
	c := newLFU(3)
	c.add("hot")
	c.add("mid")
	c.add("cold")
	// Climb hot far up the frequency ladder; each bump empties and
	// recreates a single-node bucket.
	for i := 0; i < 1000; i++ {
		c.has("hot")
	}
	c.has("mid") // mid freq 2; cold stays the unique freq-1 node
	if got := len(c.buckets); got > 3 {
		t.Fatalf("buckets map holds %d lists for 3 live frequencies; empty buckets leak", got)
	}
	c.add("new1") // must evict cold (freq 1), not mid or hot
	if _, ok := c.m["cold"]; ok {
		t.Fatal("eviction skipped the minimum-frequency key")
	}
	if _, ok := c.m["mid"]; !ok {
		t.Fatal("mid evicted despite higher frequency")
	}
	// new1 (freq 1) now alone in bucket 1; evicting it empties the
	// minFreq bucket. The NEXT eviction must re-walk from the emptied
	// bucket to mid's bucket without getting stuck or picking hot.
	c.add("new2") // evicts new1, bucket 1 empties
	if _, ok := c.m["new1"]; ok {
		t.Fatal("new1 should have been evicted")
	}
	c.has("new2") // freq 2: bucket 1 empties again via bump
	c.add("new3")
	// new3 needed a slot; the minimum frequency was 2 (mid and new2) and
	// mid is its least recently used node.
	if _, ok := c.m["mid"]; ok {
		t.Fatal("mid should be the LRU victim of the minimum frequency")
	}
	if _, ok := c.m["new2"]; !ok {
		t.Fatal("new2 evicted despite a more recent bump than mid")
	}
	if _, ok := c.m["hot"]; !ok {
		t.Fatal("hot evicted despite being the most frequent key")
	}
	if len(c.m) != 3 {
		t.Fatalf("len = %d, want 3", len(c.m))
	}
}

// TestLFUDifferential compares the bucketed LFU against a brute-force
// reference (O(n) min-scan with a logical recency clock) over random
// operation streams — the regression net for the minFreq bookkeeping.
func TestLFUDifferential(t *testing.T) {
	type refEntry struct {
		freq  int
		touch int64
	}
	for seed := int64(0); seed < 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		capn := 1 + rng.Intn(5)
		c := newLFU(capn)
		ref := make(map[string]*refEntry)
		clock := int64(0)
		refAdd := func(k string) {
			clock++
			if e, ok := ref[k]; ok {
				e.freq, e.touch = e.freq+1, clock
				return
			}
			if len(ref) >= capn {
				var victim string
				bestF, bestT := int(^uint(0)>>1), int64(^uint64(0)>>1)
				for key, e := range ref {
					if e.freq < bestF || (e.freq == bestF && e.touch < bestT) {
						victim, bestF, bestT = key, e.freq, e.touch
					}
				}
				delete(ref, victim)
			}
			ref[k] = &refEntry{freq: 1, touch: clock}
		}
		refHas := func(k string) bool {
			e, ok := ref[k]
			if !ok {
				return false
			}
			clock++
			e.freq++
			e.touch = clock
			return true
		}
		for op := 0; op < 2000; op++ {
			k := fmt.Sprintf("k%d", rng.Intn(8))
			if rng.Intn(2) == 0 {
				if want, got := refHas(k), c.has(k); got != want {
					t.Fatalf("seed=%d op=%d has(%s) = %v, reference %v", seed, op, k, got, want)
				}
			} else {
				c.add(k)
				refAdd(k)
			}
			if len(c.m) != len(ref) {
				t.Fatalf("seed=%d op=%d: len %d, reference %d", seed, op, len(c.m), len(ref))
			}
		}
	}
}

func TestSDCStaticNeverEvicted(t *testing.T) {
	c := newSDC([]string{"top1", "top2"}, 2)
	if c.has("top1") {
		t.Fatal("an unfilled static slot hit")
	}
	c.add("top1")
	c.add("top2")
	for i := 0; i < 50; i++ {
		c.add(fmt.Sprintf("dyn%d", i))
	}
	if !c.has("top1") || !c.has("top2") {
		t.Fatal("static entry evicted by dynamic churn")
	}
	dyn := 0
	for i := 0; i < 50; i++ {
		if c.has(fmt.Sprintf("dyn%d", i)) {
			dyn++
		}
	}
	if dyn != 2 {
		t.Fatalf("dynamic section holds %d keys, want its capacity 2", dyn)
	}
}

func TestSDCBeatsLRUOnZipf(t *testing.T) {
	// The Fagni et al. result in miniature: a Zipf query stream with a
	// stable head. SDC (static = head, dynamic = LRU) must beat pure LRU
	// of the same total capacity.
	rng := rand.New(rand.NewSource(1))
	z := randx.NewZipf(5000, 1.0)
	const capTotal = 200
	staticKeys := make([]string, capTotal/2)
	for i := range staticKeys {
		staticKeys[i] = fmt.Sprintf("q%d", i) // true popularity head
	}
	queries := make([]querylog.Query, 100000)
	for i := range queries {
		queries[i].Key = fmt.Sprintf("q%d", z.Draw(rng))
	}
	lruRatio := replay(newLRU(capTotal), queries)
	sdcRatio := replay(newSDC(staticKeys, capTotal/2), queries)
	if sdcRatio <= lruRatio {
		t.Fatalf("SDC hit ratio %.3f not above LRU %.3f on Zipf stream", sdcRatio, lruRatio)
	}
}
