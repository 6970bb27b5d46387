package rank

import (
	"math"

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
	it   *index.Iterator
	idf  float64
	ub   float64 // list-wide score upper bound: TermUpperBound of the list's summary
	doc  int32   // current document, valid while !done
	tf   int32
	done bool
}

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
	return evaluateTopK(ix, nil, s, terms, k, mode, 0)
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

// evaluateTopK is EvaluateTopK with a tombstone filter (see evaluateOR)
// and the pruning threshold seeded at seed instead of -Inf (seed <= 0
// means unseeded; BM25 scores are strictly positive). The score bounds
// cover tombstoned postings too, so they stay valid upper bounds for the
// live ones.
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
func evaluateTopK(ix *index.Index, dead func(ext int) bool, s *Scorer, terms []string, k int, mode Pruning, seed float64) ([]Result, EvalStats) {
	if mode == PruneNone || k <= 0 {
		rs, es := evaluateOR(ix, dead, s, terms, k)
		if len(rs) >= k && k > 0 {
			es.FinalThreshold = rs[k-1].Score
		}
		return rs, es
	}
	seedThr := math.Inf(-1)
	if seed > 0 {
		seedThr = seed - pruneSlack*seed
	}
	var es EvalStats
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	cursors := sc.open(ix, s, terms, &es)
	finish := func(tk *topK) ([]Result, EvalStats) {
		for i := range cursors {
			es.BytesDecoded += cursors[i].it.BytesDecoded()
		}
		if seed > 0 {
			es.FinalThreshold = seed
		}
		if len(tk.rs) >= k && tk.rs[0].Score > es.FinalThreshold {
			es.FinalThreshold = tk.rs[0].Score
		}
		sc.heap = tk.rs[:0]
		return tk.results(), es
	}
	tk := &topK{k: k, rs: sc.heap[:0], dead: dead}
	if len(cursors) == 0 {
		if seed > 0 {
			es.FinalThreshold = seed
		}
		return nil, es
	}
	for i := range cursors {
		if cursors[i].it.Next() {
			es.PostingsDecoded++
			p := cursors[i].it.Posting()
			cursors[i].doc, cursors[i].tf = p.Doc, p.TF
		} else {
			cursors[i].done = true
		}
	}

	// Cursor indices ordered by ascending list upper bound (index
	// tiebreak keeps the order deterministic); prefix[j] bounds the total
	// contribution of the j+1 lowest-impact lists. Both are fixed for the
	// whole evaluation — only the essential/non-essential boundary m moves
	// as the threshold rises.
	if cap(sc.order) < len(cursors) {
		sc.order = make([]int, len(cursors))
		sc.prefix = make([]float64, len(cursors))
		sc.contrib = make([]float64, len(cursors))
	}
	order, prefix, contrib := sc.order[:len(cursors)], sc.prefix[:len(cursors)], sc.contrib[:len(cursors)]
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

	m := 0 // cursors order[:m] are non-essential
	for {
		// The threshold is the tighter of the heap floor and the caller's
		// seed, both widened by pruneSlack (the heap floor overtakes the
		// seed once k locally-found documents beat it).
		thr := seedThr
		if len(tk.rs) >= k {
			t := tk.rs[0].Score
			if ht := t - pruneSlack*math.Abs(t); ht > thr {
				thr = ht
			}
		}
		for m < len(order) && prefix[m] < thr {
			m++
		}
		if m == len(order) {
			// Even all lists together cannot reach the threshold.
			return finish(tk)
		}
		// Candidate: minimum current document over essential cursors.
		d := int32(math.MaxInt32)
		alive := false
		for _, i := range order[m:] {
			if c := &cursors[i]; !c.done {
				alive = true
				if c.doc < d {
					d = c.doc
				}
			}
		}
		if !alive {
			return finish(tk)
		}

		// Score the candidate: essential contributions first, then probe
		// non-essential lists in descending bound order, abandoning as soon
		// as the remaining bound cannot lift the partial sum past the
		// threshold. Each posting is scored once; contrib keeps its value
		// by cursor for the survivor's sum.
		docLen := ix.DocLen(d)
		clear(contrib)
		partial := 0.0
		for _, i := range order[m:] {
			if c := &cursors[i]; !c.done && c.doc == d {
				contrib[i] = s.Term(c.tf, docLen, c.idf)
				partial += contrib[i]
			}
		}
		abandoned := false
		for j := m - 1; j >= 0; j-- {
			if partial+prefix[j] < thr {
				abandoned = true
				break
			}
			c := &cursors[order[j]]
			if c.done {
				continue
			}
			if c.doc < d {
				if !c.it.SkipTo(d) {
					c.done = true
					continue
				}
				es.PostingsDecoded++
				p := c.it.Posting()
				c.doc, c.tf = p.Doc, p.TF
			}
			if c.doc == d {
				contrib[order[j]] = s.Term(c.tf, docLen, c.idf)
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
		for _, i := range order[m:] {
			c := &cursors[i]
			if c.done || c.doc != d {
				continue
			}
			if c.it.Next() {
				es.PostingsDecoded++
				p := c.it.Posting()
				c.doc, c.tf = p.Doc, p.TF
			} else {
				c.done = true
			}
		}
	}
}
