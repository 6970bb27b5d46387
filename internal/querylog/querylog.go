// Package querylog generates and analyzes synthetic query logs with the
// structure Sections 4–5 of the paper mine from real logs: Zipfian query
// popularity (caching), topical locality (collection selection and
// partitioning), language mix (language routing), diurnal arrival
// patterns offset by region (geographic offloading), and slow topic
// drift (the "user model becoming inaccurate" problem).
package querylog

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"dwr/internal/randx"
	"dwr/internal/simweb"
)

// Config controls log generation.
type Config struct {
	Seed     int64
	Distinct int     // size of the distinct-query pool
	Total    int     // query instances in the log
	MinTerms int     // terms per query, lower bound
	MaxTerms int     // terms per query, upper bound
	Days     int     // days the log spans
	DriftAmp float64 // amplitude of topic-popularity drift over the log (0..1)
}

const (
	zipfS    = 0.9 // popularity skew across distinct queries
	peakHour = 14  // local hour of peak traffic
)

// DefaultConfig returns a log configuration sized for the experiments.
func DefaultConfig() Config {
	return Config{
		Seed:     1,
		Distinct: 2000,
		Total:    20000,
		MinTerms: 1,
		MaxTerms: 3,
		Days:     14,
		DriftAmp: 0.5,
	}
}

// Query is one logged query instance.
type Query struct {
	ID     int    // instance ordinal in arrival order
	Key    string // canonical query text (terms joined by spaces)
	Terms  []string
	Topic  int     // topic of the page the query was sampled from
	Lang   string  // language of that page's host
	Region int     // region the query originates from
	Day    int     // virtual day of arrival
	Hour   float64 // local hour of arrival [0, 24)
}

// Time returns the absolute arrival time in virtual hours since the log
// start.
func (q *Query) Time() float64 { return float64(q.Day)*24 + q.Hour }

// Log is a generated query stream plus its distinct-query pool.
type Log struct {
	Queries []Query
	Pool    []Query // distinct queries (ID unset, arrival unset)
	Regions int
	Topics  int
}

// Generate samples a query log against web: distinct queries are drawn
// from actual page content (so they match documents), and instances
// follow Zipf popularity modulated by diurnal and drift patterns.
func Generate(web *simweb.Web, cfg Config) *Log {
	rng := randx.New(cfg.Seed)
	if cfg.MinTerms <= 0 {
		cfg.MinTerms = 1
	}
	if cfg.MaxTerms < cfg.MinTerms {
		cfg.MaxTerms = cfg.MinTerms
	}
	if cfg.Days <= 0 {
		cfg.Days = 1
	}
	topics := web.Topics.Topics()
	regions := web.Regions()
	lg := &Log{Regions: regions, Topics: topics}

	// Distinct pool: sample a page, take 1-3 terms from its content.
	// Pages are sampled by popularity (Zipf over the in-degree ranking):
	// real query traffic concentrates on popular content, which is what
	// makes a large slice of the collection never-recalled (Puppin's 53%)
	// and gives usage-based partitioning its edge.
	byPopularity := make([]int, len(web.Pages))
	for i := range byPopularity {
		byPopularity[i] = i
	}
	sort.Slice(byPopularity, func(a, b int) bool {
		pa, pb := web.Pages[byPopularity[a]], web.Pages[byPopularity[b]]
		if pa.InDegree != pb.InDegree {
			return pa.InDegree > pb.InDegree
		}
		return byPopularity[a] < byPopularity[b]
	})
	pageZipf := randx.NewZipf(len(web.Pages), 0.8)
	lg.Pool = make([]Query, 0, cfg.Distinct)
	seen := make(map[string]bool, cfg.Distinct)
	for len(lg.Pool) < cfg.Distinct {
		p := web.Pages[byPopularity[pageZipf.Draw(rng)]]
		if len(p.Terms) == 0 {
			continue
		}
		h := web.Hosts[p.Host]
		vocab := web.Vocabs[h.Lang]
		n := cfg.MinTerms + rng.Intn(cfg.MaxTerms-cfg.MinTerms+1)
		terms := make([]string, 0, n)
		used := make(map[string]bool, n)
		for tries := 0; len(terms) < n && tries < 20; tries++ {
			w := vocab.Word(int(p.Terms[rng.Intn(len(p.Terms))]))
			if !used[w] {
				used[w] = true
				terms = append(terms, w)
			}
		}
		sort.Strings(terms)
		key := strings.Join(terms, " ")
		if seen[key] {
			continue
		}
		seen[key] = true
		lg.Pool = append(lg.Pool, Query{
			Key: key, Terms: terms, Topic: p.Topic, Lang: h.Lang,
			Region: h.Region,
		})
	}

	// Group the pool by topic for drift-aware sampling; Zipf popularity
	// within each topic group and across the whole pool.
	byTopic := make([][]int, topics)
	for i, q := range lg.Pool {
		byTopic[q.Topic] = append(byTopic[q.Topic], i)
	}
	zipfByTopic := make([]*randx.Zipf, topics)
	baseWeight := make([]float64, topics)
	for t := 0; t < topics; t++ {
		if len(byTopic[t]) > 0 {
			zipfByTopic[t] = randx.NewZipf(len(byTopic[t]), zipfS)
		}
		baseWeight[t] = float64(len(byTopic[t]))
	}

	// Instances.
	lg.Queries = make([]Query, 0, cfg.Total)
	weights := make([]float64, topics)
	for i := 0; i < cfg.Total; i++ {
		day := rng.Intn(cfg.Days)
		// Topic drift: each topic's popularity oscillates across the log
		// with a topic-specific phase.
		for t := 0; t < topics; t++ {
			phase := 2 * math.Pi * (float64(day)/float64(cfg.Days) + float64(t)/float64(topics))
			weights[t] = baseWeight[t] * (1 + cfg.DriftAmp*math.Sin(phase))
			if weights[t] < 0 {
				weights[t] = 0
			}
		}
		topic := randx.Weighted(rng, weights)
		if zipfByTopic[topic] == nil {
			continue
		}
		q := lg.Pool[byTopic[topic][zipfByTopic[topic].Draw(rng)]]
		q.ID = len(lg.Queries)
		q.Day = day
		q.Region = rng.Intn(regions)
		q.Hour = diurnalHour(rng, q.Region, regions)
		lg.Queries = append(lg.Queries, q)
	}
	// Sort by arrival time so the log plays back in order.
	sort.SliceStable(lg.Queries, func(i, j int) bool {
		return lg.Queries[i].Time() < lg.Queries[j].Time()
	})
	for i := range lg.Queries {
		lg.Queries[i].ID = i
	}
	return lg
}

// diurnalHour draws a local arrival hour peaked at peakHour (UTC) shifted by
// the region's timezone offset; regions are spread around the globe so
// their peaks interleave — the basis for the offloading experiment.
func diurnalHour(rng *rand.Rand, region, regions int) float64 {
	offset := 24 * float64(region) / float64(regions)
	// Rejection-sample from 1 + cos shape centred on the regional peak.
	for {
		h := rng.Float64() * 24
		rel := 2 * math.Pi * (h - peakHour - offset) / 24
		accept := (1 + math.Cos(rel)) / 2
		if rng.Float64() < accept {
			return h
		}
	}
}

// SplitByDay partitions the log at day: queries on days < day form the
// training log, the rest the test log. The pool is shared.
func (lg *Log) SplitByDay(day int) (train, test *Log) {
	train = &Log{Pool: lg.Pool, Regions: lg.Regions, Topics: lg.Topics}
	test = &Log{Pool: lg.Pool, Regions: lg.Regions, Topics: lg.Topics}
	for _, q := range lg.Queries {
		if q.Day < day {
			train.Queries = append(train.Queries, q)
		} else {
			test.Queries = append(test.Queries, q)
		}
	}
	return train, test
}

// TermWeights returns, for each term appearing in the log, the number of
// query instances containing it — the query-frequency component of the
// Moffat bin-packing weight (C7).
func (lg *Log) TermWeights() map[string]int {
	w := make(map[string]int)
	for _, q := range lg.Queries {
		for _, t := range q.Terms {
			w[t]++
		}
	}
	return w
}

// CoOccurrence counts, for each unordered term pair appearing together
// in a query instance, the number of co-occurrences — input to the
// co-occurrence-aware term partitioner (Lucchese et al.).
func (lg *Log) CoOccurrence() map[[2]string]int {
	co := make(map[[2]string]int)
	for _, q := range lg.Queries {
		for i := 0; i < len(q.Terms); i++ {
			for j := i + 1; j < len(q.Terms); j++ {
				a, b := q.Terms[i], q.Terms[j]
				if a > b {
					a, b = b, a
				}
				co[[2]string{a, b}]++
			}
		}
	}
	return co
}

// TopKeys returns the n most frequent distinct query keys, most popular
// first (ties break lexicographically for determinism) — the popularity
// head C10's SDC cache pins as its static set. n <= 0 returns all
// distinct keys.
func (lg *Log) TopKeys(n int) []string {
	counts := make(map[string]int)
	for _, q := range lg.Queries {
		counts[q.Key]++
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
	if n > 0 && len(keys) > n {
		keys = keys[:n]
	}
	return keys
}
