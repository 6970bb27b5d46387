package rank

import "dwr/internal/index"

// EvaluateView is evaluateTopK over a partition view: every segment of
// v is evaluated in turn with the same scorer — built from view-wide or
// collection-wide statistics, never a segment's own — into one top-k
// heap. Tombstoned documents are refused at that heap, and MaxScore's
// threshold is its floor, the view's running k-th score, so later
// (usually newer, smaller) segments are pruned against what the earlier
// ones already found. Each segment's lists are bounded by TermUpperBound
// of the segment's own summaries, which is safe under any statistics.
//
// seed (<= 0 = unseeded) must be a true lower bound on the global k-th
// best score — a broker's running k-th merged score qualifies. Under
// MaxScore the answer is then exactly the view's exhaustive top k cut at
// seed·(1−pruneSlack), scores bitwise-identical: every document reaching
// the seed comes back and no document below that cut does. See
// evaluateTopK for the argument.
//
// A single-segment view is one evaluator call, so a static index wrapped
// by index.ViewOf costs exactly one evaluateTopK.
func EvaluateView(v *index.Manifest, s *Scorer, terms []string, k int, mode Pruning, seed float64) ([]Result, EvalStats) {
	return evaluateView(v.Segments(), v.Tombstoned(), s, terms, k, false, mode, seed)
}

// EvaluateViewPhrase is EvaluatePhrase over a partition view; see
// EvaluateView. Positions never leave a segment: each segment matches
// the phrase on its own and offers its matches to the view's heap.
func EvaluateViewPhrase(v *index.Manifest, s *Scorer, terms []string, k int) ([]Result, EvalStats) {
	return evaluateView(v.Segments(), v.Tombstoned(), s, terms, k, true, PruneNone, 0)
}

// evaluateView takes one scratch for the whole view and runs the shape's
// evaluator over every segment into one heap, summing the accounting.
func evaluateView(segs []*index.Index, dead map[int]bool, s *Scorer, terms []string, k int, phrase bool, mode Pruning, seed float64) ([]Result, EvalStats) {
	sc := evalPool.Get().(*evalScratch)
	defer evalPool.Put(sc)
	tk := &topK{k: k, rs: sc.heap[:0], dead: dead}
	var es EvalStats
	for _, seg := range segs {
		switch {
		case phrase:
			sc.phrase(seg, s, terms, tk, &es)
		case mode == PruneNone || k <= 0:
			sc.exhaustive(seg, s, terms, tk, &es)
		default:
			sc.maxScore(seg, s, terms, seed, tk, &es)
		}
	}
	sc.heap = tk.rs[:0]
	if len(tk.rs) == 0 {
		return nil, es
	}
	return tk.results(), es
}
