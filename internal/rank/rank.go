// Package rank implements scoring and result aggregation for the
// distributed query processing of Sections 4–5: BM25 ranking driven by
// either global or per-partition (local) statistics, disjunctive and
// conjunctive document-at-a-time evaluation, top-k result heaps, result
// merging at the broker, and the agreement metrics (overlap@k, Kendall
// tau) used to quantify how much local statistics distort the global
// ranking (experiment C9).
package rank

import (
	"cmp"
	"math"
	"slices"
	"sync"

	"dwr/internal/index"
)

// Result is one ranked document: the external document ID and its score.
type Result struct {
	Doc   int
	Score float64
}

// StatsSource supplies the collection statistics that parameterize BM25.
// It abstracts over "this partition's local statistics" and "global
// statistics aggregated by the two-round broker protocol".
type StatsSource struct {
	NumDocs   int
	AvgDocLen float64
	DF        map[string]int
}

// FromIndex builds a StatsSource from a single index's own statistics.
func FromIndex(ix *index.Index) StatsSource {
	st := ix.LocalStats(nil)
	return StatsSource{NumDocs: st.NumDocs, AvgDocLen: ix.AvgDocLen(), DF: st.DF}
}

// FromGlobal builds a StatsSource from merged partition statistics.
func FromGlobal(st index.Stats) StatsSource {
	avg := 0.0
	if st.NumDocs > 0 {
		avg = float64(st.TotalLen) / float64(st.NumDocs)
	}
	return StatsSource{NumDocs: st.NumDocs, AvgDocLen: avg, DF: st.DF}
}

// Scorer computes BM25 scores.
type Scorer struct {
	K1, B float64
	Stats StatsSource
}

// NewScorer returns a BM25 scorer with the standard parameters
// (k1 = 1.2, b = 0.75) over the given statistics. These are the same
// constants the index computes each list's saturation bound against, so
// a default scorer gets that bound in TermUpperBound.
func NewScorer(stats StatsSource) *Scorer {
	return &Scorer{K1: index.DefaultBM25K1, B: index.DefaultBM25B, Stats: stats}
}

// IDF returns the BM25 inverse document frequency of term, floored at a
// small positive value so very common terms still contribute.
func (s *Scorer) IDF(term string) float64 {
	df := s.Stats.DF[term]
	n := s.Stats.NumDocs
	idf := math.Log(1 + (float64(n)-float64(df)+0.5)/(float64(df)+0.5))
	if idf < 1e-6 {
		idf = 1e-6
	}
	return idf
}

// Term scores one term occurrence: tf within a document of length
// docLen, with precomputed idf. The average length is floored at 1 by
// hand rather than with math.Max (the same value for every input) so
// the call inlines into the evaluators' per-posting loops.
func (s *Scorer) Term(tf int32, docLen int, idf float64) float64 {
	k1, b, avg := s.K1, s.B, s.Stats.AvgDocLen
	if avg < 1 {
		avg = 1
	}
	norm := 1 - b + b*float64(docLen)/avg
	return idf * float64(tf) * (k1 + 1) / (float64(tf) + k1*norm)
}

// EvalStats records the resource usage of one evaluation — the units the
// Webber term-vs-document partitioning comparison is measured in (C6).
type EvalStats struct {
	PostingsDecoded int   // postings touched
	ListsAccessed   int   // posting lists opened (disk seeks in the paper's terms)
	BytesRead       int64 // encoded posting bytes of the lists accessed
	BytesDecoded    int64 // encoded bytes actually decoded (blocks touched)
	// FinalThreshold is the score floor the evaluation ended with: the
	// k-th best score found, or the seed threshold it was started from if
	// nothing beat that. 0 when the evaluation held fewer than k results
	// and was unseeded. A broker can feed it forward as the seed of later
	// partition evaluations (EvaluateView's seed).
	FinalThreshold float64
}

// evalCursor pairs a posting iterator with its term's precomputed IDF.
type evalCursor struct {
	it  *index.Iterator
	idf float64
}

// orHead tracks one cursor's current document in the OR merge.
type orHead struct {
	doc int32
	i   int
}

// evalScratch is the pooled per-evaluation working set: iterator
// storage, cursor and merge-head slices, the dedup set, and the top-k
// heap buffer. The broker evaluates partitions on parallel goroutines
// and every query allocates these afresh otherwise, so reuse here cuts
// most of the per-query garbage on the hot path. Nothing handed back to
// callers may alias the scratch (topK.results copies).
type evalScratch struct {
	its     []index.Iterator
	cursors []evalCursor
	heads   []orHead
	seen    map[string]bool
	uniq    []string
	heap    []Result
	// Pruned-evaluation working set (see prune.go).
	pcs     []pruneCursor
	contrib []float64
	order   []int
	prefix  []float64
}

var evalPool = sync.Pool{New: func() interface{} {
	return &evalScratch{seen: make(map[string]bool)}
}}

// dedup keeps the first occurrence of each term, in query order, in the
// scratch's reusable buffer.
func (sc *evalScratch) dedup(terms []string) []string {
	clear(sc.seen)
	sc.uniq = sc.uniq[:0]
	for _, t := range terms {
		if !sc.seen[t] {
			sc.seen[t] = true
			sc.uniq = append(sc.uniq, t)
		}
	}
	return sc.uniq
}

// iters returns n stable Iterator slots. Allocating up-front (never
// appending afterwards) keeps the *Iterator pointers held by cursors
// valid for the whole evaluation.
func (sc *evalScratch) iters(n int) []index.Iterator {
	if cap(sc.its) < n {
		sc.its = make([]index.Iterator, n)
	}
	return sc.its[:n]
}

// EvaluateOR scores the disjunction of the query terms over ix
// (document-at-a-time) and returns the top k results by score. Ties
// break by ascending external ID so rankings are deterministic.
func EvaluateOR(ix *index.Index, s *Scorer, terms []string, k int) ([]Result, EvalStats) {
	return evaluateOR(ix, nil, s, terms, k)
}

// evaluateOR is EvaluateOR over one segment of a partition view:
// documents dead reports tombstoned (nil = none) are scored like any
// other — their postings are physically there — but never offered to
// the heap.
func evaluateOR(ix *index.Index, dead func(ext int) bool, s *Scorer, terms []string, k int) ([]Result, EvalStats) {
	var es EvalStats
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	uniq := sc.dedup(terms)
	its := sc.iters(len(uniq))
	sc.cursors = sc.cursors[:0]
	for _, t := range uniq {
		it := ix.PostingsInto(&its[len(sc.cursors)], t)
		if it == nil {
			continue
		}
		es.BytesRead += int64(ix.PostingBytes(t))
		es.ListsAccessed++
		sc.cursors = append(sc.cursors, evalCursor{it: it, idf: s.IDF(t)})
	}
	cursors := sc.cursors
	if len(cursors) == 0 {
		return nil, es
	}
	// Advance all iterators merging by doc.
	sc.heads = sc.heads[:0]
	for i := range cursors {
		if cursors[i].it.Next() {
			es.PostingsDecoded++
			sc.heads = append(sc.heads, orHead{doc: cursors[i].it.Posting().Doc, i: i})
		}
	}
	tk := &topK{k: k, rs: sc.heap[:0], dead: dead}
	heads := sc.heads
	for len(heads) > 0 {
		// Find minimum doc among heads.
		minDoc := heads[0].doc
		for _, h := range heads[1:] {
			if h.doc < minDoc {
				minDoc = h.doc
			}
		}
		// Score minDoc and compact the surviving heads in place; the
		// write index trails the read index, so order is preserved and
		// no per-round slice is allocated.
		score := 0.0
		w := 0
		for _, h := range heads {
			c := &cursors[h.i]
			if h.doc == minDoc {
				score += s.Term(c.it.Posting().TF, ix.DocLen(minDoc), c.idf)
				if c.it.Next() {
					es.PostingsDecoded++
					heads[w] = orHead{doc: c.it.Posting().Doc, i: h.i}
					w++
				}
			} else {
				heads[w] = h
				w++
			}
		}
		tk.offer(Result{Doc: ix.ExtID(minDoc), Score: score})
		heads = heads[:w]
	}
	for i := range cursors {
		es.BytesDecoded += cursors[i].it.BytesDecoded()
	}
	sc.heap = tk.rs[:0]
	return tk.results(), es
}

// EvaluateAND scores the conjunction of the query terms, using SkipTo on
// the rarest list to drive the others — the access pattern whose cost
// skip pointers exist to reduce.
func EvaluateAND(ix *index.Index, s *Scorer, terms []string, k int) ([]Result, EvalStats) {
	var es EvalStats
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	uniq := sc.dedup(terms)
	its := sc.iters(len(uniq))
	sc.cursors = sc.cursors[:0]
	for _, t := range uniq {
		it := ix.PostingsInto(&its[len(sc.cursors)], t)
		if it == nil {
			return nil, es // one missing term empties a conjunction
		}
		es.BytesRead += int64(ix.PostingBytes(t))
		es.ListsAccessed++
		sc.cursors = append(sc.cursors, evalCursor{it: it, idf: s.IDF(t)})
	}
	cursors := sc.cursors
	if len(cursors) == 0 {
		return nil, es
	}
	// Rarest list first minimizes skips.
	slices.SortFunc(cursors, func(a, b evalCursor) int { return cmp.Compare(a.it.Count(), b.it.Count()) })
	driver := cursors[0]
	tk := &topK{k: k, rs: sc.heap[:0]}
	finish := func() []Result {
		for i := range cursors {
			es.BytesDecoded += cursors[i].it.BytesDecoded()
		}
		sc.heap = tk.rs[:0]
		return tk.results()
	}
	if !driver.it.Next() {
		return finish(), es
	}
	es.PostingsDecoded++
	for {
		doc := driver.it.Posting().Doc
		match := true
		for i := 1; i < len(cursors); i++ {
			if !cursors[i].it.SkipTo(doc) {
				return finish(), es
			}
			es.PostingsDecoded++
			if cursors[i].it.Posting().Doc != doc {
				match = false
				break
			}
		}
		if match {
			score := 0.0
			for i := range cursors {
				score += s.Term(cursors[i].it.Posting().TF, ix.DocLen(doc), cursors[i].idf)
			}
			tk.offer(Result{Doc: ix.ExtID(doc), Score: score})
		}
		if !driver.it.Next() {
			return finish(), es
		}
		es.PostingsDecoded++
	}
}

func dedup(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := terms[:0:0]
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	return out
}

// topK keeps the k best results (max score, tie: min doc) in rs, a
// binary min-heap under worse: rs[0] is the worst result kept, the one
// an offer must beat. The order is total, so any correct heap keeps the
// same k. Documents dead reports tombstoned (nil = none) are refused at
// offer: a deleted document that entered the heap would raise the
// pruning threshold against live ones.
type topK struct {
	k    int
	rs   []Result
	dead func(ext int) bool
}

// worse reports whether a ranks below b: a lower score, or the same
// score and a higher doc.
func worse(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

func (t *topK) offer(r Result) {
	if t.k <= 0 {
		return
	}
	if len(t.rs) < t.k {
		if !t.isDead(r.Doc) {
			t.rs = append(t.rs, r)
			t.up(len(t.rs) - 1)
		}
		return
	}
	if worse(t.rs[0], r) && !t.isDead(r.Doc) {
		t.rs[0] = r
		t.down(0)
	}
}

// up sifts rs[i] toward the root past every parent it is worse than.
func (t *topK) up(i int) {
	h, r := t.rs, t.rs[i]
	for i > 0 {
		p := (i - 1) / 2
		if !worse(r, h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = r
}

// down sifts rs[i] toward the leaves past every child worse than it.
func (t *topK) down(i int) {
	h, r := t.rs, t.rs[i]
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && worse(h[c+1], h[c]) {
			c++
		}
		if !worse(h[c], r) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = r
}

func (t *topK) isDead(ext int) bool { return t.dead != nil && t.dead(ext) }

func (t *topK) results() []Result {
	out := make([]Result, len(t.rs))
	copy(out, t.rs)
	SortResults(out)
	return out
}

// SortResults orders results by descending score, ascending doc.
func SortResults(rs []Result) {
	slices.SortFunc(rs, func(a, b Result) int {
		switch {
		case worse(b, a):
			return -1
		case worse(a, b):
			return 1
		}
		return 0
	})
}

// MergeResults merges per-partition result lists into a global top k —
// the broker's merge step in a document-partitioned system. Scores must
// be comparable across lists (i.e. computed from the same statistics)
// for the merge to equal a centralized ranking; comparing the two is
// exactly experiment C9.
func MergeResults(k int, lists ...[]Result) []Result {
	tk := &topK{k: k}
	for _, l := range lists {
		for _, r := range l {
			tk.offer(r)
		}
	}
	return tk.results()
}

// TopKMerger is an incremental MergeResults for brokers that gather
// partition answers in waves: results are offered as they arrive and the
// running k-th best score is readable between waves as a threshold seed.
// Because topK.offer implements a total order (score desc, doc asc) and
// document partitions are disjoint, the final Results are identical to a
// single MergeResults over all lists regardless of Add order.
type TopKMerger struct {
	tk topK
}

// NewTopKMerger returns a merger keeping the k best results.
func NewTopKMerger(k int) *TopKMerger { return &TopKMerger{tk: topK{k: k}} }

// Add offers one partition's result list to the merge.
func (m *TopKMerger) Add(rs []Result) {
	for _, r := range rs {
		m.tk.offer(r)
	}
}

// Threshold returns the current k-th best score. ok is false until k
// results have been merged — before that there is no safe lower bound on
// the global k-th score.
func (m *TopKMerger) Threshold() (float64, bool) {
	if m.tk.k <= 0 || len(m.tk.rs) < m.tk.k {
		return 0, false
	}
	return m.tk.rs[0].Score, true
}

// Results returns the merged top k (score desc, doc asc). The merger
// remains usable afterwards.
func (m *TopKMerger) Results() []Result { return m.tk.results() }

// MergeResultsDedup merges result lists that may contain the SAME
// document (replicas of one collection), keeping each document's best
// score once. Use MergeResults for disjoint document partitions.
func MergeResultsDedup(k int, lists ...[]Result) []Result {
	best := make(map[int]float64)
	for _, l := range lists {
		for _, r := range l {
			if s, ok := best[r.Doc]; !ok || r.Score > s {
				best[r.Doc] = r.Score
			}
		}
	}
	tk := &topK{k: k}
	for doc, score := range best {
		tk.offer(Result{Doc: doc, Score: score})
	}
	return tk.results()
}

// Overlap returns |A∩B| / k for the top-k documents of two rankings —
// the result-set agreement measure the paper proposes for quantifying
// the local-vs-global statistics effect.
func Overlap(a, b []Result, k int) float64 {
	if k <= 0 {
		return 0
	}
	if k > len(a) {
		k = len(a)
	}
	if k > len(b) {
		k = len(b)
	}
	if k == 0 {
		return 0
	}
	seen := make(map[int]bool, k)
	for _, r := range a[:k] {
		seen[r.Doc] = true
	}
	inter := 0
	for _, r := range b[:k] {
		if seen[r.Doc] {
			inter++
		}
	}
	return float64(inter) / float64(k)
}

// Recall measures result quality the way the collection-selection
// literature does: the fraction of the reference answer's documents
// (the exhaustive fan-out's top-k) present in the observed answer. An
// empty reference counts as perfect — there was nothing to miss.
func Recall(got, reference []Result) float64 {
	if len(reference) == 0 {
		return 1
	}
	in := make(map[int]bool, len(got))
	for _, r := range got {
		in[r.Doc] = true
	}
	hit := 0
	for _, r := range reference {
		if in[r.Doc] {
			hit++
		}
	}
	return float64(hit) / float64(len(reference))
}

// KendallTau computes Kendall's tau-a between two rankings restricted to
// their common documents. 1 = identical order, -1 = reversed. It returns
// 1 when fewer than two documents are shared.
func KendallTau(a, b []Result) float64 {
	posA := make(map[int]int, len(a))
	for i, r := range a {
		posA[r.Doc] = i
	}
	var common []int // positions in a, ordered by b
	for _, r := range b {
		if p, ok := posA[r.Doc]; ok {
			common = append(common, p)
		}
	}
	n := len(common)
	if n < 2 {
		return 1
	}
	concordant, discordant := 0, 0
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if common[i] < common[j] {
				concordant++
			} else {
				discordant++
			}
		}
	}
	return float64(concordant-discordant) / float64(n*(n-1)/2)
}
