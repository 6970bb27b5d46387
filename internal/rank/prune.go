package rank

import (
	"cmp"
	"math"
	"slices"

	"dwr/internal/index"
)

// Pruning selects the top-k evaluation strategy for disjunctive queries.
type Pruning int

const (
	// PruneNone evaluates every candidate document exhaustively.
	PruneNone Pruning = iota
	// PruneMaxScore partitions lists into essential and non-essential by
	// score upper bound (Turtle & Flood): documents appearing only in
	// non-essential lists are never scored once the top-k threshold
	// exceeds their combined bound, and non-essential probes abandon
	// early.
	PruneMaxScore
)

// pruneSlack is the relative score tolerance of the pruned evaluators: a
// document is abandoned only when its upper bound is below threshold ×
// (1 − pruneSlack). Survivor scores are re-summed in original term
// order, so every returned score is bitwise-identical to the exhaustive
// evaluator's; the slack only guards the skip decisions against
// accumulation-order rounding (~1e-16 relative) in the partial sums the
// bounds are built from. Documents whose true score lies within
// pruneSlack of the running threshold are therefore always scored, never
// pruned — this is the documented tolerance of the rank-identity
// guarantee.
const pruneSlack = 1e-9

// pruneCursor is one term's posting cursor plus the precomputed bound
// dynamic pruning decides with.
type pruneCursor struct {
	it  *index.Iterator
	idf float64
	ub  float64 // list-wide score upper bound: TermUpperBound of the list's summary
	doc int32   // current document; exhausted once the list is
}

// exhausted is an exhausted cursor's doc: past every document ordinal,
// so it is never a candidate and never equals one.
const exhausted = math.MaxInt32

// Competitive reports whether a score upper bound can still beat a
// running top-k threshold under the evaluators' documented pruneSlack
// tolerance. Brokers use it to decide whether a partition (bounded by
// its query upper bound) can contribute to the global top k at all.
func Competitive(bound, threshold float64) bool {
	return bound >= threshold-pruneSlack*math.Abs(threshold)
}

// EvaluateTopK scores the disjunction of the query terms over ix and
// returns the top k results by score, using the selected dynamic-pruning
// strategy. Results are rank-identical to EvaluateOR (see pruneSlack for
// the tolerance argument); only the work done differs.
func EvaluateTopK(ix *index.Index, s *Scorer, terms []string, k int, mode Pruning) ([]Result, EvalStats) {
	return evaluateTopK(ix, s, terms, k, mode, 0)
}

// open opens a cursor on every distinct query term ix holds, in query
// order, each bounded by TermUpperBound of its list's resident summary.
func (sc *evalScratch) open(ix *index.Index, s *Scorer, terms []string, es *EvalStats) []pruneCursor {
	uniq := sc.dedup(terms)
	its := sc.iters(len(uniq))
	sc.pcs = sc.pcs[:0]
	for _, t := range uniq {
		it := ix.PostingsInto(&its[len(sc.pcs)], t)
		if it == nil {
			continue
		}
		es.BytesRead += int64(ix.PostingBytes(t))
		es.ListsAccessed++
		idf := s.IDF(t)
		sc.pcs = append(sc.pcs, pruneCursor{it: it, idf: idf, ub: s.TermUpperBound(idf, it.ScoreMeta())})
	}
	return sc.pcs
}

// evaluateTopK is EvaluateTopK with the pruning threshold seeded at seed
// instead of -Inf (seed <= 0 means unseeded; BM25 scores are strictly
// positive).
//
// The caller must guarantee seed is a true lower bound on the global
// k-th best score — a distributed broker's running k-th merged score
// qualifies. Safety: the evaluator only abandons documents whose score
// upper bound is below threshold×(1−pruneSlack), so a document scoring
// exactly seed still survives (its bound is ≥ seed > seed−slack) and
// every pruned document scores strictly below the global k-th — it could
// never enter the global top k. Documents this partition does return
// keep scores bitwise-identical to exhaustive evaluation; the list may
// hold fewer than k entries when the partition has fewer than k
// seed-beating documents, which a merging broker by construction never
// misses.
func evaluateTopK(ix *index.Index, s *Scorer, terms []string, k int, mode Pruning, seed float64) ([]Result, EvalStats) {
	return evaluateView([]*index.Index{ix}, nil, s, terms, k, false, mode, seed)
}

// maxScore is evaluateTopK's pruned body over one segment of a view,
// offering into tk. Its threshold is the tighter of seed and tk's floor
// — for a view, the running k-th score of every segment evaluated so
// far. The score bounds cover tombstoned postings too, so they stay
// valid upper bounds for the live ones tk admits. A segment holding one
// query list goes to oneList: MaxScore has no other list to make it
// non-essential against.
func (sc *evalScratch) maxScore(ix *index.Index, s *Scorer, terms []string, seed float64, tk *topK, es *EvalStats) {
	seedThr := math.Inf(-1)
	if seed > 0 {
		seedThr = seed - pruneSlack*seed
	}
	cursors := sc.open(ix, s, terms, es)
	norms := s.normsFor(ix)
	if len(cursors) == 1 {
		sc.oneList(ix, s, norms, &cursors[0], seedThr, tk, es)
		return
	}
	for i := range cursors {
		if c := &cursors[i]; c.it.Next() {
			es.PostingsDecoded++
			c.doc = c.it.Doc()
		} else {
			c.doc = exhausted
		}
	}

	// Cursor indices ordered by ascending list upper bound (index
	// tiebreak keeps the order deterministic); prefix[j] bounds the total
	// contribution of the j+1 lowest-impact lists. Both are fixed for the
	// whole evaluation — only the essential/non-essential boundary m moves
	// as the threshold rises.
	n := len(cursors)
	sc.order = slices.Grow(sc.order[:0], n)[:n]
	sc.prefix = slices.Grow(sc.prefix[:0], n)[:n]
	sc.contrib = slices.Grow(sc.contrib[:0], n)[:n]
	order, prefix, contrib := sc.order, sc.prefix, sc.contrib
	for i := range order {
		order[i] = i
	}
	for swapped := true; swapped; { // tiny n: insertion-ordered bubble pass
		swapped = false
		for i := 1; i < len(order); i++ {
			a, b := order[i-1], order[i]
			if cursors[a].ub > cursors[b].ub || (cursors[a].ub == cursors[b].ub && a > b) {
				order[i-1], order[i] = b, a
				swapped = true
			}
		}
	}
	sum := 0.0
	for j, i := range order {
		sum += cursors[i].ub
		prefix[j] = sum
	}

	// The threshold is the tighter of the heap floor and the caller's seed,
	// both widened by pruneSlack (the heap floor overtakes the seed once k
	// documents found in the view beat it). It moves only when an offer
	// moves the heap, and only then can the boundary m move.
	thr, floor := tk.bounds(seedThr)
	m, d := sc.essential(0, thr) // cursors order[:m] are non-essential; d is the candidate

	// While two or more lists are essential, a candidate is the minimum
	// document over them. One pass scores the essential cursors on d,
	// advances them, and finds the next candidate; every cursor's slot of
	// contrib is written, with its contribution or 0.
	for m < n-1 && d != exhausted {
		norm := s.docNorm(norms, ix, d)
		partial := 0.0
		next := int32(exhausted)
		for _, i := range order[m:] {
			c := &cursors[i]
			v := 0.0
			if c.doc == d {
				v = s.termNorm(c.it.TF(), norm, c.idf)
				partial += v
				if c.it.Next() {
					es.PostingsDecoded++
					c.doc = c.it.Doc()
				} else {
					c.doc = exhausted
				}
			}
			contrib[i] = v
			next = min(next, c.doc)
		}
		if sc.settle(ix, s, d, norm, m, partial, thr, tk, es) {
			thr, floor = tk.bounds(seedThr)
			m, next = sc.essential(m, thr)
		}
		d = next
	}

	// With one list essential its postings are the candidates, in order:
	// each is scored and its cursor advanced, and only a candidate whose
	// score bound v+rest reaches cut goes on to settle. Below the
	// threshold settle would abandon it at the first probe; with no list
	// left to probe (m = 0) its score is v, and below the floor the heap
	// would refuse it. The loop ends when the threshold passes prefix[m]:
	// then even the essential list cannot lift a document past it.
	if m == n-1 {
		i := order[m]
		e := &cursors[i]
		rest, cut := 0.0, floor
		if m > 0 {
			rest, cut = prefix[m-1], thr
		}
		for e.doc != exhausted {
			d := e.doc
			norm := s.docNorm(norms, ix, d)
			v := s.termNorm(e.it.TF(), norm, e.idf)
			if e.it.Next() {
				es.PostingsDecoded++
				e.doc = e.it.Doc()
			} else {
				e.doc = exhausted
			}
			if v+rest < cut {
				continue
			}
			contrib[i] = v
			if sc.settle(ix, s, d, norm, m, v, thr, tk, es) {
				if thr, floor = tk.bounds(seedThr); prefix[m] < thr {
					break
				}
				if cut = floor; m > 0 {
					cut = thr
				}
			}
		}
	}
	for i := range cursors {
		es.BytesDecoded += cursors[i].it.BytesDecoded()
	}
}

// oneList is maxScore over a segment where c's list is the only query
// list present, pruned by block. A block's maximum is the best Term over
// its frontier, exact to the bit because the frontier holds the block's
// best posting (a one-block list's is the list bound c.ub). Blocks are
// opened best maximum first, ties to the lower block, and every posting
// of an opened block is scored and offered as the one-list loop of
// maxScore would; the first block whose maximum is below the threshold
// ends the list, since no block after it can lift a document past that
// threshold. The threshold is maxScore's — seed or heap floor, widened
// by pruneSlack — so a document that ties the k-th score is never in a
// skipped block.
func (sc *evalScratch) oneList(ix *index.Index, s *Scorer, norms []float64, c *pruneCursor, seedThr float64, tk *topK, es *EvalStats) {
	thr, floor := tk.bounds(seedThr)
	if c.ub < thr { // no block can beat the threshold: leave the list unread
		return
	}
	it := c.it
	nb := it.Blocks()
	sc.bmax = slices.Grow(sc.bmax[:0], nb)[:nb]
	sc.order = slices.Grow(sc.order[:0], nb)[:nb]
	bmax, order := sc.bmax, sc.order
	for b := range bmax {
		m := c.ub
		if front := it.Frontier(b); len(front) > 0 {
			m = math.Inf(-1)
			for _, p := range front {
				m = max(m, s.Term(p.TF, int(p.Len), c.idf))
			}
		}
		bmax[b], order[b] = m, b
	}
	slices.SortFunc(order, func(a, b int) int {
		if bmax[a] != bmax[b] {
			return cmp.Compare(bmax[b], bmax[a])
		}
		return a - b
	})
	for _, b := range order {
		if bmax[b] < thr {
			break
		}
		n := it.OpenBlock(b)
		es.PostingsDecoded += n
		for {
			d := it.Doc()
			if v := s.termNorm(it.TF(), s.docNorm(norms, ix, d), c.idf); v >= floor {
				tk.offer(Result{Doc: ix.ExtID(d), Score: v})
				thr, floor = tk.bounds(seedThr)
			}
			if n--; n == 0 {
				break
			}
			it.Next()
		}
	}
	es.BytesDecoded += it.BytesDecoded()
}

// bounds returns maxScore's pruning threshold — the tighter of seedThr
// and the heap floor widened by pruneSlack — and the admission floor, the
// score an offer must reach: -Inf until the heap holds k results.
func (t *topK) bounds(seedThr float64) (thr, floor float64) {
	thr, floor = seedThr, math.Inf(-1)
	if len(t.rs) >= t.k {
		floor = t.rs[0].Score
		if ht := floor - pruneSlack*math.Abs(floor); ht > thr {
			thr = ht
		}
	}
	return thr, floor
}

// essential moves the boundary m past every list whose prefix bound is
// below thr and returns it with the next candidate: the minimum current
// document over the essential cursors order[m:].
func (sc *evalScratch) essential(m int, thr float64) (int, int32) {
	for m < len(sc.order) && sc.prefix[m] < thr {
		m++
	}
	d := int32(exhausted)
	for _, i := range sc.order[m:] {
		d = min(d, sc.pcs[i].doc)
	}
	return m, d
}

// settle finishes candidate d, whose essential contributions are in
// contrib and sum to partial. It probes the non-essential lists order[:m]
// in descending bound order, abandoning d as soon as the remaining bound
// cannot lift partial past thr; a probed cursor's slot gets its
// contribution or 0. A survivor's score is the sum of contrib in query-
// term order, bitwise the exhaustive evaluator's sum (a term the document
// lacks adds +0, which changes no sum that starts at +0). It goes to the
// heap only if it can enter: the heap is short, or the score reaches the
// floor — a tie too, which offer settles by doc. settle reports whether
// it offered d; only then can the heap, and the threshold, have moved.
func (sc *evalScratch) settle(ix *index.Index, s *Scorer, d int32, norm float64, m int, partial, thr float64, tk *topK, es *EvalStats) bool {
	cursors, order, prefix, contrib := sc.pcs, sc.order, sc.prefix, sc.contrib
	for j := m - 1; j >= 0; j-- {
		if partial+prefix[j] < thr {
			return false
		}
		i := order[j]
		c := &cursors[i]
		if c.doc < d {
			if c.it.SkipTo(d) {
				es.PostingsDecoded++
				c.doc = c.it.Doc()
			} else {
				c.doc = exhausted
			}
		}
		v := 0.0
		if c.doc == d {
			v = s.termNorm(c.it.TF(), norm, c.idf)
			partial += v
		}
		contrib[i] = v
	}
	score := 0.0
	for _, v := range contrib {
		score += v
	}
	if len(tk.rs) < tk.k || score >= tk.rs[0].Score {
		tk.offer(Result{Doc: ix.ExtID(d), Score: score})
		return true
	}
	return false
}
