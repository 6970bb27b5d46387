package rank

import "dwr/internal/index"

// EvaluateView is evaluateTopK over a partition view: every segment of
// v is evaluated in turn with the same scorer — built from view-wide or
// collection-wide statistics, never a segment's own — and the
// per-segment lists are merged. Tombstoned documents are refused at the
// heap, and each segment starts from the tighter of the caller's seed
// and the running k-th score of the segments before it, so later
// (usually newer, smaller) segments are pruned against what the earlier
// ones already found. Each segment's lists are bounded by TermUpperBound
// of the segment's own summaries, which is safe under any statistics.
//
// seed (<= 0 = unseeded) must be a true lower bound on the global k-th
// best score — a broker's running k-th merged score qualifies. Every
// document scoring at least seed then comes back with a bitwise-identical
// score; see evaluateTopK for the argument.
//
// A single-segment view returns that segment's list as-is, so a static
// index wrapped by index.ViewOf costs exactly one evaluateTopK.
func EvaluateView(v *index.Manifest, s *Scorer, terms []string, k int, mode Pruning, seed float64) ([]Result, EvalStats) {
	return evaluateView(v, s, terms, k, false, mode, seed)
}

// EvaluateViewPhrase is EvaluatePhrase over a partition view; see
// EvaluateView. Positions never leave a segment: each segment matches
// the phrase on its own and only its top k is merged.
func EvaluateViewPhrase(v *index.Manifest, s *Scorer, terms []string, k int) ([]Result, EvalStats) {
	return evaluateView(v, s, terms, k, true, PruneNone, 0)
}

func evaluateView(v *index.Manifest, s *Scorer, terms []string, k int, phrase bool, mode Pruning, seed float64) ([]Result, EvalStats) {
	var dead func(int) bool
	if v.Tombstones() > 0 {
		dead = v.Deleted
	}
	segs := v.Segments()
	m := TopKMerger{tk: topK{k: k}}
	var total EvalStats
	if seed > 0 {
		total.FinalThreshold = seed
	}
	for _, seg := range segs {
		var rs []Result
		var es EvalStats
		if phrase {
			rs, es = evaluatePhrase(seg, dead, s, terms, k)
		} else {
			rs, es = evaluateTopK(seg, dead, s, terms, k, mode, total.FinalThreshold)
		}
		if len(segs) == 1 {
			return rs, es
		}
		m.Add(rs)
		total.PostingsDecoded += es.PostingsDecoded
		total.ListsAccessed += es.ListsAccessed
		total.BytesRead += es.BytesRead
		total.BytesDecoded += es.BytesDecoded
		// The next seed: this segment's floor, or the merged k-th score
		// once k results are in — never lower than the segment's own.
		if es.FinalThreshold > total.FinalThreshold {
			total.FinalThreshold = es.FinalThreshold
		}
		if t, ok := m.Threshold(); ok && t > total.FinalThreshold {
			total.FinalThreshold = t
		}
	}
	return m.Results(), total
}
