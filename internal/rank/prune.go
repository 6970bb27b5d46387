package rank

import (
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
// valid upper bounds for the live ones tk admits.
func (sc *evalScratch) maxScore(ix *index.Index, s *Scorer, terms []string, seed float64, tk *topK, es *EvalStats) {
	seedThr := math.Inf(-1)
	if seed > 0 {
		seedThr = seed - pruneSlack*seed
	}
	cursors := sc.open(ix, s, terms, es)
	norms := s.normsFor(ix)
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

	m := 0      // cursors order[:m] are non-essential
	dm := -1    // the m that candidate d was taken over
	var d int32 // candidate: minimum current document over essential cursors
	for {
		// The threshold is the tighter of the heap floor and the caller's
		// seed, both widened by pruneSlack (the heap floor overtakes the
		// seed once k documents found in the view beat it).
		thr := seedThr
		if len(tk.rs) >= tk.k {
			t := tk.rs[0].Score
			if ht := t - pruneSlack*math.Abs(t); ht > thr {
				thr = ht
			}
		}
		for m < len(order) && prefix[m] < thr {
			m++
		}
		if m == len(order) {
			break // even all lists together cannot reach the threshold
		}
		if dm != m { // the essential set shrank: take the minimum afresh
			d, dm = exhausted, m
			for _, i := range order[m:] {
				d = min(d, cursors[i].doc)
			}
		}
		if d == exhausted {
			break
		}

		// Score the candidate in one pass over the essential cursors: each
		// one on d is scored and advanced, and the minimum of where they
		// stand is the next candidate. Then probe non-essential lists in
		// descending bound order, abandoning as soon as the remaining bound
		// cannot lift the partial sum past the threshold. Each posting is
		// scored once; contrib keeps its value by cursor for the
		// survivor's sum, and the length norm is computed once for d.
		norm := s.docNorm(norms, ix, d)
		clear(contrib)
		partial := 0.0
		next := int32(exhausted)
		for _, i := range order[m:] {
			c := &cursors[i]
			if c.doc == d {
				contrib[i] = s.termNorm(c.it.TF(), norm, c.idf)
				partial += contrib[i]
				if c.it.Next() {
					es.PostingsDecoded++
					c.doc = c.it.Doc()
				} else {
					c.doc = exhausted
				}
			}
			next = min(next, c.doc)
		}
		abandoned := false
		for j := m - 1; j >= 0; j-- {
			if partial+prefix[j] < thr {
				abandoned = true
				break
			}
			c := &cursors[order[j]]
			if c.doc < d {
				if c.it.SkipTo(d) {
					es.PostingsDecoded++
					c.doc = c.it.Doc()
				} else {
					c.doc = exhausted
				}
			}
			if c.doc == d {
				contrib[order[j]] = s.termNorm(c.it.TF(), norm, c.idf)
				partial += contrib[order[j]]
			}
		}
		if !abandoned {
			// Sum the survivor's contributions in original term order so its
			// score is bitwise-identical to the exhaustive evaluator's sum. A
			// term the document lacks adds +0, which changes no sum that
			// starts at +0.
			score := 0.0
			for _, v := range contrib {
				score += v
			}
			tk.offer(Result{Doc: ix.ExtID(d), Score: score})
		}
		d = next
	}
	for i := range cursors {
		es.BytesDecoded += cursors[i].it.BytesDecoded()
	}
}
