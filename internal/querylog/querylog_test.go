package querylog

import (
	"math"
	"sort"
	"testing"

	"dwr/internal/simweb"
)

func testWeb() *simweb.Web {
	cfg := simweb.DefaultConfig()
	cfg.Hosts = 60
	cfg.MaxPages = 60
	cfg.VocabSize = 2000
	return simweb.New(cfg)
}

func testLog(t *testing.T) (*simweb.Web, *Log) {
	t.Helper()
	w := testWeb()
	cfg := DefaultConfig()
	cfg.Distinct = 500
	cfg.Total = 8000
	return w, Generate(w, cfg)
}

func TestGenerateBasics(t *testing.T) {
	_, lg := testLog(t)
	if len(lg.Queries) == 0 || len(lg.Pool) != 500 {
		t.Fatalf("log has %d queries, pool %d", len(lg.Queries), len(lg.Pool))
	}
	for i, q := range lg.Queries {
		if q.ID != i {
			t.Fatalf("query %d has ID %d", i, q.ID)
		}
		if len(q.Terms) == 0 || q.Key == "" {
			t.Fatalf("query %d empty", i)
		}
		if q.Hour < 0 || q.Hour >= 24 {
			t.Fatalf("query %d hour %v out of range", i, q.Hour)
		}
		if i > 0 && lg.Queries[i-1].Time() > q.Time() {
			t.Fatalf("log not sorted by arrival at %d", i)
		}
	}
}

func TestDeterminism(t *testing.T) {
	w := testWeb()
	cfg := DefaultConfig()
	cfg.Distinct = 200
	cfg.Total = 2000
	a, b := Generate(w, cfg), Generate(w, cfg)
	if len(a.Queries) != len(b.Queries) {
		t.Fatal("same-seed logs differ in length")
	}
	for i := range a.Queries {
		if a.Queries[i].Key != b.Queries[i].Key || a.Queries[i].Day != b.Queries[i].Day {
			t.Fatalf("same-seed logs differ at %d", i)
		}
	}
}

func TestQueriesMatchDocuments(t *testing.T) {
	// Every query term must exist in some language's vocabulary — it was
	// sampled from page content, so a search engine over the same web
	// must be able to match it.
	w, lg := testLog(t)
	known := map[string]bool{} // "lang/word"
	for lang, v := range w.Vocabs {
		for id := 0; id < w.Config.VocabSize; id++ {
			known[lang+"/"+v.Word(id)] = true
		}
	}
	for _, q := range lg.Pool[:100] {
		for _, term := range q.Terms {
			if !known[q.Lang+"/"+term] {
				t.Fatalf("query term %q not in %s vocabulary", term, q.Lang)
			}
		}
	}
}

func TestZipfPopularity(t *testing.T) {
	_, lg := testLog(t)
	byKey := map[string]int{}
	for _, q := range lg.Queries {
		byKey[q.Key]++
	}
	var counts []int
	for _, c := range byKey {
		counts = append(counts, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	if len(counts) < 10 {
		t.Fatal("too few distinct queries observed")
	}
	// Heavy head: most popular query much more frequent than the median.
	if counts[0] < 5*counts[len(counts)/2] {
		t.Fatalf("popularity not skewed: top=%d median=%d", counts[0], counts[len(counts)/2])
	}
}

func TestDiurnalPattern(t *testing.T) {
	_, lg := testLog(t)
	vol := make([][24]int, lg.Regions) // queries per (region, hour of day)
	for _, q := range lg.Queries {
		vol[q.Region][int(q.Hour)%24]++
	}
	for r := range vol {
		min, max := math.MaxInt32, 0
		for _, c := range vol[r] {
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max < 2*min+2 {
			t.Fatalf("region %d volume too flat: min=%d max=%d", r, min, max)
		}
	}
	// Regional peaks must differ (timezone offsets).
	peak := func(r int) int {
		best, bi := -1, 0
		for h, c := range vol[r] {
			if c > best {
				best, bi = c, h
			}
		}
		return bi
	}
	if lg.Regions >= 2 && peak(0) == peak(1) {
		t.Fatalf("regions 0 and 1 peak at the same hour %d", peak(0))
	}
}

func TestTopicDrift(t *testing.T) {
	w := testWeb()
	cfg := DefaultConfig()
	cfg.Distinct = 500
	cfg.Total = 20000
	cfg.DriftAmp = 0.9
	lg := Generate(w, cfg)
	byDay := make([][]int, cfg.Days) // queries per (day, topic)
	for d := range byDay {
		byDay[d] = make([]int, lg.Topics)
	}
	for _, q := range lg.Queries {
		if q.Day < cfg.Days {
			byDay[q.Day][q.Topic]++
		}
	}
	// Some topic's share must vary substantially between its best and
	// worst day.
	drifted := false
	for tpc := 0; tpc < lg.Topics; tpc++ {
		min, max := math.MaxInt32, 0
		for d := 0; d < cfg.Days; d++ {
			c := byDay[d][tpc]
			if c < min {
				min = c
			}
			if c > max {
				max = c
			}
		}
		if max > 2*min+5 {
			drifted = true
			break
		}
	}
	if !drifted {
		t.Fatal("no topic showed drift despite DriftAmp=0.9")
	}
}

func TestSplitByDay(t *testing.T) {
	_, lg := testLog(t)
	train, test := lg.SplitByDay(7)
	if len(train.Queries)+len(test.Queries) != len(lg.Queries) {
		t.Fatal("split lost queries")
	}
	for _, q := range train.Queries {
		if q.Day >= 7 {
			t.Fatal("train contains post-split query")
		}
	}
	for _, q := range test.Queries {
		if q.Day < 7 {
			t.Fatal("test contains pre-split query")
		}
	}
	if len(train.Queries) == 0 || len(test.Queries) == 0 {
		t.Fatal("degenerate split")
	}
}

func TestTermWeightsAndCoOccurrence(t *testing.T) {
	_, lg := testLog(t)
	tw := lg.TermWeights()
	if len(tw) == 0 {
		t.Fatal("no term weights")
	}
	total := 0
	for _, q := range lg.Queries {
		total += len(q.Terms)
	}
	sum := 0
	for _, c := range tw {
		sum += c
	}
	if sum != total {
		t.Fatalf("term weights sum %d != total term instances %d", sum, total)
	}
	co := lg.CoOccurrence()
	for pair, c := range co {
		if pair[0] >= pair[1] {
			t.Fatalf("co-occurrence pair %v not canonical", pair)
		}
		if c <= 0 {
			t.Fatalf("non-positive co-occurrence count for %v", pair)
		}
	}
}
