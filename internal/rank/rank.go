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

// The BM25 parameters every Scorer uses: the standard k1 and b.
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// Scorer computes BM25 scores.
type Scorer struct {
	Stats StatsSource
	// norms is lengthNorm of every document of normsOf, by internal
	// ordinal (WithNorms); both are nil on a plain scorer.
	norms   []float64
	normsOf *index.Index
}

// NewScorer returns a BM25 scorer (k1 = 1.2, b = 0.75) over the given
// statistics.
func NewScorer(stats StatsSource) *Scorer {
	return &Scorer{Stats: stats}
}

// WithNorms returns a copy of s carrying ix's length-norm table: the
// document half of Term for every document of ix, computed once by
// lengthNorm itself, so the copy scores ix with the same bits while
// reading norms[doc] where s divides per candidate. Any other index —
// another partition, a segment — is scored by division as before. The
// table holds for the copy's Stats as they are now; they must not
// change afterwards.
func (s *Scorer) WithNorms(ix *index.Index) *Scorer {
	c := *s
	c.norms = make([]float64, ix.NumDocs())
	for d := range c.norms {
		c.norms[d] = c.lengthNorm(ix.DocLen(int32(d)))
	}
	c.normsOf = ix
	return &c
}

// normsFor returns s's length-norm table if it was built over ix, else
// nil: an evaluator calls it once per segment and hands the result to
// docNorm.
func (s *Scorer) normsFor(ix *index.Index) []float64 {
	if s.normsOf != ix {
		return nil
	}
	return s.norms
}

// docNorm is lengthNorm of document doc of ix, read from norms when it is
// ix's table (normsFor) and divided out when it is nil.
func (s *Scorer) docNorm(norms []float64, ix *index.Index, doc int32) float64 {
	if norms != nil {
		return norms[doc]
	}
	return s.lengthNorm(ix.DocLen(doc))
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
// docLen, with precomputed idf. It is termNorm over lengthNorm, so an
// evaluator that scores several terms of one document computes the
// length half once and gets the same bits.
func (s *Scorer) Term(tf int32, docLen int, idf float64) float64 {
	return s.termNorm(tf, s.lengthNorm(docLen), idf)
}

// lengthNorm is the document half of Term, k1·(1−b+b·docLen/avg). The
// average length is floored at 1 by hand rather than with math.Max (the
// same value for every input) so the call inlines.
func (s *Scorer) lengthNorm(docLen int) float64 {
	avg := s.Stats.AvgDocLen
	if avg < 1 {
		avg = 1
	}
	return bm25K1 * (1 - bm25B + bm25B*float64(docLen)/avg)
}

// termNorm is the posting half of Term: tf against a document's
// lengthNorm.
func (s *Scorer) termNorm(tf int32, norm, idf float64) float64 {
	return idf * float64(tf) * (bm25K1 + 1) / (float64(tf) + norm)
}

// EvalStats records the resource usage of one evaluation — the units the
// Webber term-vs-document partitioning comparison is measured in (C6).
type EvalStats struct {
	PostingsDecoded int   // postings touched
	ListsAccessed   int   // posting lists opened (disk seeks in the paper's terms)
	BytesRead       int64 // encoded posting bytes of the lists accessed
	BytesDecoded    int64 // encoded bytes actually decoded (blocks touched)
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
// most of the per-query garbage on the hot path. One scratch serves a
// whole view, its segments one after another. Nothing handed back to
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
	return evaluateTopK(ix, s, terms, k, PruneNone, 0)
}

// exhaustive is EvaluateOR's body over one segment of a view: every
// document holding a query term is scored and offered to tk. A document
// tk refuses as tombstoned is scored like any other — its postings are
// physically there.
func (sc *evalScratch) exhaustive(ix *index.Index, s *Scorer, terms []string, tk *topK, es *EvalStats) {
	norms := s.normsFor(ix)
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
	// Advance all iterators merging by doc.
	sc.heads = sc.heads[:0]
	for i := range cursors {
		if cursors[i].it.Next() {
			es.PostingsDecoded++
			sc.heads = append(sc.heads, orHead{doc: cursors[i].it.Doc(), i: i})
		}
	}
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
		norm := s.docNorm(norms, ix, minDoc)
		score := 0.0
		w := 0
		for _, h := range heads {
			c := &cursors[h.i]
			if h.doc == minDoc {
				score += s.termNorm(c.it.TF(), norm, c.idf)
				if c.it.Next() {
					es.PostingsDecoded++
					heads[w] = orHead{doc: c.it.Doc(), i: h.i}
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
}

// EvaluateAND scores the conjunction of the query terms, using SkipTo on
// the rarest list to drive the others — the access pattern whose cost
// skip pointers exist to reduce. A match's contributions are summed in
// query-term order, so its score is EvaluateOR's bit for bit.
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
	// Rarest list first minimizes skips; the stable sort keeps ties in
	// query order.
	order := sc.order[:0]
	for i := range cursors {
		order = append(order, i)
	}
	sc.order = order
	slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(cursors[a].it.Count(), cursors[b].it.Count()) })
	driver := cursors[order[0]]
	norms := s.normsFor(ix)
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
		doc := driver.it.Doc()
		match := true
		for _, i := range order[1:] {
			if !cursors[i].it.SkipTo(doc) {
				return finish(), es
			}
			es.PostingsDecoded++
			if cursors[i].it.Doc() != doc {
				match = false
				break
			}
		}
		if match {
			norm := s.docNorm(norms, ix, doc)
			score := 0.0
			for i := range cursors {
				score += s.termNorm(cursors[i].it.TF(), norm, cursors[i].idf)
			}
			tk.offer(Result{Doc: ix.ExtID(doc), Score: score})
		}
		if !driver.it.Next() {
			return finish(), es
		}
		es.PostingsDecoded++
	}
}

// topK keeps the k best results (max score, tie: min doc) in rs, a
// binary min-heap under worse: rs[0] is the worst result kept, the one
// an offer must beat. The order is total, so any correct heap keeps the
// same k. Documents in dead, a view's tombstones (nil = none), are
// refused at offer: a deleted document that entered the heap would raise
// the pruning threshold against live ones.
type topK struct {
	k    int
	rs   []Result
	dead map[int]bool
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
		siftDown(t.rs, 0)
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

// siftDown sifts h[i] toward the leaves of the min-heap h past every
// child worse than it.
func siftDown(h []Result, i int) {
	r := h[i]
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

func (t *topK) isDead(ext int) bool { return len(t.dead) > 0 && t.dead[ext] }

// results returns a copy of the heap's k best, best first, sorted in
// place by heap extraction (each step moves the heap's worst to its end).
func (t *topK) results() []Result {
	out := make([]Result, len(t.rs))
	copy(out, t.rs)
	for n := len(out) - 1; n > 0; n-- {
		out[0], out[n] = out[n], out[0]
		siftDown(out[:n], 0)
	}
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

// MergeResults merges per-partition result lists, each best first as
// every evaluator returns it, into a global top k — the broker's merge
// step in a document-partitioned system. Scores must be comparable
// across lists (i.e. computed from the same statistics) for the merge to
// equal a centralized ranking; comparing the two is exactly experiment
// C9.
func MergeResults(k int, lists ...[]Result) []Result {
	var m TopKMerger
	m.Reset(k)
	for _, l := range lists {
		m.Add(l)
	}
	return m.Results()
}

// TopKMerger is the broker's merge for partition answers gathered in
// waves: each answer is merged as it arrives, in one linear pass over
// two best-first lists, and the running k-th best score is readable
// between waves as a threshold seed. Because worse is a total order and
// document partitions are disjoint, the final Results are identical to
// a single MergeResults over all lists regardless of Add order. The
// zero value keeps nothing until Reset gives it a k.
type TopKMerger struct {
	k int
	// rs is the running top k, best first; next is the buffer Add merges
	// into before the two swap.
	rs, next []Result
}

// Reset empties the merger and makes it keep the k best results, reusing
// its storage: a broker pooling its per-query state merges every query
// into one merger.
func (m *TopKMerger) Reset(k int) { m.k, m.rs = k, m.rs[:0] }

// Add merges one partition's result list into the running top k. rs
// must be best first (score desc, doc asc), as every evaluator and
// MergeResults return it. Once the merger is warm, Add allocates
// nothing; it returns at once when the merger is full and rs's best
// cannot enter.
func (m *TopKMerger) Add(rs []Result) {
	kept := m.rs
	if len(rs) == 0 || m.k <= 0 || (len(kept) >= m.k && !worse(kept[m.k-1], rs[0])) {
		return
	}
	out := slices.Grow(m.next[:0], min(m.k, len(kept)+len(rs)))
	for len(out) < m.k && len(kept) > 0 && len(rs) > 0 {
		if worse(kept[0], rs[0]) {
			out, rs = append(out, rs[0]), rs[1:]
		} else {
			out, kept = append(out, kept[0]), kept[1:]
		}
	}
	// At most one of the two lists is left: its head fills what k allows.
	out = append(out, kept[:min(len(kept), m.k-len(out))]...)
	out = append(out, rs[:min(len(rs), m.k-len(out))]...)
	m.rs, m.next = out, m.rs
}

// Threshold returns the current k-th best score. ok is false until k
// results have been merged — before that there is no safe lower bound on
// the global k-th score.
func (m *TopKMerger) Threshold() (float64, bool) {
	if m.k <= 0 || len(m.rs) < m.k {
		return 0, false
	}
	return m.rs[m.k-1].Score, true
}

// Results returns a copy of the merged top k (score desc, doc asc). The
// merger remains usable afterwards.
func (m *TopKMerger) Results() []Result {
	out := make([]Result, len(m.rs))
	copy(out, m.rs)
	return out
}

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
