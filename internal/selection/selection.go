// Package selection implements collection selection (query routing) for
// partitioned indexes — Section 4's "challenging problem usually known as
// collection selection": given a query, rank the document partitions by
// how likely they are to hold relevant results so only a subset of
// servers is contacted.
//
// Three strategies are provided: CORI (Callan), the best-known
// content-based selector the paper names as state of the art; the
// query-driven selector built from the Puppin et al. co-clustering model
// that the paper reports outperforming CORI; and a random baseline.
package selection

import (
	"math"
	"math/rand"
	"sort"
	"strings"

	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/randx"
)

// Selector ranks partitions for a query, best first. Every selector
// returns a permutation of [0, K).
type Selector interface {
	Rank(terms []string) []int
	K() int
}

// ScoredPart is a partition with its selection score, as exposed by
// selectors that can justify their ranking (RankScored: best first,
// with Rank's deterministic tie-break, ascending partition ID). Callers
// that budget the cutoff by score mass — mediators deciding how many
// sites a query really needs — consume these instead of the bare
// permutation.
type ScoredPart struct {
	Part  int
	Score float64
}

// scored is a partition with a selection score.
type scored struct {
	part  int
	score float64
}

func sortScoredParts(s []scored) []ScoredPart {
	sort.Slice(s, func(i, j int) bool {
		if s[i].score != s[j].score {
			return s[i].score > s[j].score
		}
		return s[i].part < s[j].part
	})
	out := make([]ScoredPart, len(s))
	for i, e := range s {
		out[i] = ScoredPart{Part: e.part, Score: e.score}
	}
	return out
}

// CORI ranks collections with the CORI inference-network formula,
// using only per-partition statistics (df, collection word counts).
type CORI struct {
	df    []map[string]int // per-partition document frequencies
	cw    []float64        // per-partition total word counts
	avgCW float64
}

// NewCORI builds a CORI selector from per-partition index statistics.
func NewCORI(stats []index.Stats) *CORI {
	c := &CORI{}
	for _, st := range stats {
		df := make(map[string]int, len(st.DF))
		for t, v := range st.DF {
			df[t] = v
		}
		c.df = append(c.df, df)
		c.cw = append(c.cw, float64(st.TotalLen))
	}
	for _, w := range c.cw {
		c.avgCW += w
	}
	if len(c.cw) > 0 {
		c.avgCW /= float64(len(c.cw))
	}
	return c
}

// K returns the number of partitions.
func (c *CORI) K() int { return len(c.df) }

// Update replaces (or, when part == K(), appends) one partition's
// statistics and refolds the collection-wide averages — the incremental
// refresh path a mediator drives from the dynamic index's change hooks,
// instead of rebuilding the whole selector. It panics on a gap
// (part > K()), which indicates a programming error.
func (c *CORI) Update(part int, st index.Stats) {
	if part > len(c.df) {
		panic("selection: CORI.Update beyond K()")
	}
	df := make(map[string]int, len(st.DF))
	for t, v := range st.DF {
		df[t] = v
	}
	if part == len(c.df) {
		c.df = append(c.df, df)
		c.cw = append(c.cw, float64(st.TotalLen))
	} else {
		c.df[part] = df
		c.cw[part] = float64(st.TotalLen)
	}
	c.avgCW = 0
	for _, w := range c.cw {
		c.avgCW += w
	}
	if len(c.cw) > 0 {
		c.avgCW /= float64(len(c.cw))
	}
}

// Rank orders partitions by CORI belief for the query terms.
func (c *CORI) Rank(terms []string) []int {
	sp := c.RankScored(terms)
	out := make([]int, len(sp))
	for i, e := range sp {
		out[i] = e.Part
	}
	return out
}

// RankScored is Rank with the CORI beliefs attached.
func (c *CORI) RankScored(terms []string) []ScoredPart {
	const (
		b  = 0.4
		k  = 50.0
		kb = 150.0
	)
	nColl := float64(len(c.df))
	s := make([]scored, len(c.df))
	for p := range s {
		s[p].part = p
	}
	for _, t := range terms {
		// cf: number of collections containing t.
		cf := 0.0
		for p := range c.df {
			if c.df[p][t] > 0 {
				cf++
			}
		}
		if cf == 0 {
			continue
		}
		icf := math.Log((nColl+0.5)/cf) / math.Log(nColl+1.0)
		for p := range c.df {
			df := float64(c.df[p][t])
			if df == 0 {
				continue
			}
			tw := df / (df + k + kb*c.cw[p]/math.Max(c.avgCW, 1))
			s[p].score += b + (1-b)*tw*icf
		}
	}
	if n := float64(len(terms)); n > 0 {
		for p := range s {
			s[p].score /= n
		}
	}
	return sortScoredParts(s)
}

// QueryDriven selects partitions with the query-log model of Puppin et
// al.: an exact hit on a training query uses that query's observed
// result distribution; otherwise the query backs off to a term-level
// aggregation of the distributions of training queries sharing its
// terms; with no evidence at all it falls back to partition sizes.
type QueryDriven struct {
	k        int
	byKey    map[string][]float64
	byTerm   map[string][]float64
	fallback []float64 // partition sizes, normalized
}

// NewQueryDriven builds the selector from a co-clustering result and the
// training log it was derived from.
func NewQueryDriven(res partition.CoClusterResult, train []partition.QueryDocs) *QueryDriven {
	k := res.Partition.K
	qd := &QueryDriven{
		k:      k,
		byKey:  res.QueryPart,
		byTerm: make(map[string][]float64),
	}
	// Term-level backoff evidence, weighted by how discriminative each
	// term is: a term appearing in many training queries carries little
	// routing signal, so its contribution is divided by its training
	// query frequency (IDF-style).
	termQueries := make(map[string]int)
	for _, q := range train {
		if _, ok := res.QueryPart[q.Key]; !ok {
			continue
		}
		for _, t := range q.Terms {
			termQueries[t]++
		}
	}
	seenKey := make(map[string]bool)
	for _, q := range train {
		dist, ok := res.QueryPart[q.Key]
		if !ok || seenKey[q.Key] {
			continue
		}
		seenKey[q.Key] = true
		for _, t := range q.Terms {
			acc := qd.byTerm[t]
			if acc == nil {
				acc = make([]float64, k)
				qd.byTerm[t] = acc
			}
			w := 1 / float64(termQueries[t])
			for p, v := range dist {
				acc[p] += v * w
			}
		}
	}
	sizes := res.Partition.Sizes()
	total := 0
	for _, s := range sizes {
		total += s
	}
	qd.fallback = make([]float64, k)
	for p, s := range sizes {
		if total > 0 {
			qd.fallback[p] = float64(s) / float64(total)
		}
	}
	return qd
}

// K returns the number of partitions.
func (qd *QueryDriven) K() int { return qd.k }

// Rank orders partitions for the query terms.
func (qd *QueryDriven) Rank(terms []string) []int {
	sp := qd.RankScored(terms)
	out := make([]int, len(sp))
	for i, e := range sp {
		out[i] = e.Part
	}
	return out
}

// RankScored is Rank with the routing distribution attached.
func (qd *QueryDriven) RankScored(terms []string) []ScoredPart {
	key := canonicalKey(terms)
	s := make([]scored, qd.k)
	for p := range s {
		s[p].part = p
	}
	if dist, ok := qd.byKey[key]; ok {
		for p, v := range dist {
			s[p].score = v
		}
		return sortScoredParts(s)
	}
	hit := false
	for _, t := range terms {
		if dist, ok := qd.byTerm[t]; ok {
			hit = true
			for p, v := range dist {
				s[p].score += v
			}
		}
	}
	if !hit {
		for p, v := range qd.fallback {
			s[p].score = v
		}
	}
	return sortScoredParts(s)
}

func canonicalKey(terms []string) string {
	ts := append([]string(nil), terms...)
	sort.Strings(ts)
	return strings.Join(ts, " ")
}

// Random is the baseline selector: a random permutation per query.
type Random struct {
	k   int
	rng *rand.Rand
}

// NewRandom creates a random selector over k partitions. The RNG is
// derived from the seed via internal/randx so the permutation stream is
// reproducible and never touches global math/rand state.
func NewRandom(seed int64, k int) *Random { return &Random{k: k, rng: randx.New(seed)} }

// K returns the number of partitions.
func (r *Random) K() int { return r.k }

// Rank returns a fresh random permutation.
func (r *Random) Rank(terms []string) []int { return r.rng.Perm(r.k) }

// BySize ranks partitions by document count, a static popularity
// baseline.
type BySize struct {
	order []int
}

// NewBySize builds a selector that always proposes the largest
// partitions first.
func NewBySize(sizes []int) *BySize {
	order := make([]int, len(sizes))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if sizes[order[a]] != sizes[order[b]] {
			return sizes[order[a]] > sizes[order[b]]
		}
		return order[a] < order[b]
	})
	return &BySize{order: order}
}

// K returns the number of partitions.
func (s *BySize) K() int { return len(s.order) }

// Rank returns the static size ordering.
func (s *BySize) Rank(terms []string) []int {
	return append([]int(nil), s.order...)
}

// RecallAtN measures selection quality the way the collection-selection
// literature does: the fraction of the true top documents (trueTop,
// from a centralized evaluation) that live in the first n partitions
// proposed by the selector, given the document→partition assignment.
func RecallAtN(sel Selector, terms []string, trueTop []int, assign map[int]int, n int) float64 {
	if len(trueTop) == 0 {
		return 1
	}
	ranked := sel.Rank(terms)
	if n > len(ranked) {
		n = len(ranked)
	}
	chosen := make(map[int]bool, n)
	for _, p := range ranked[:n] {
		chosen[p] = true
	}
	hit := 0
	for _, d := range trueTop {
		if chosen[assign[d]] {
			hit++
		}
	}
	return float64(hit) / float64(len(trueTop))
}
