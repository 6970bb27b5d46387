package rank

import "dwr/internal/index"

// TermUpperBound bounds the score contribution of one term for every
// document in the list (or merged lists) summarized by m, from resident
// metadata alone (no posting bytes are touched). It is the only place a
// summary becomes a score bound: evaluateTopK orders a segment's lists by
// it and QueryBound sums it over a partition, so evaluator and broker
// obey one validity rule. Two bounds are available:
//
//   - The analytic bound Term(maxTF, minLen, idf): Scorer.Term is
//     monotone increasing in tf and decreasing in docLen, so the list's
//     largest tf scored at its shortest document dominates every real
//     posting under any BM25 parameterization.
//   - The saturation bound idf·SatBound, valid when the scorer uses the
//     default constants and its average document length is at most the
//     one SatBound was computed against: BM25 saturation is monotone
//     increasing in the average (a larger avg shrinks the length norm),
//     so a bound computed at QuantAvg stays an upper bound for any
//     smaller scorer average.
//
// The tighter (smaller) of the valid bounds is returned.
func (s *Scorer) TermUpperBound(idf float64, m index.TermScoreMeta) float64 {
	ub := s.Term(m.MaxTF, int(m.MinLen), idf)
	if s.K1 == index.DefaultBM25K1 && s.B == index.DefaultBM25B &&
		s.Stats.AvgDocLen <= m.QuantAvg && m.SatBound > 0 {
		if q := idf * m.SatBound; q < ub {
			ub = q
		}
	}
	return ub
}

// QueryBound bounds the disjunctive score of any single document in the
// partition view v for the query terms, using only the resident per-term
// metadata (merged over the view's segments) — the broker-side estimate
// a threshold-sharing scheduler orders and skips partitions by. Terms
// absent from the partition contribute nothing; a bound of 0 therefore
// means no query term occurs in the partition.
func QueryBound(v *index.Manifest, s *Scorer, terms []string) float64 {
	sum := 0.0
	for _, t := range dedup(terms) {
		m, ok := v.TermScoreMeta(t)
		if !ok {
			continue
		}
		sum += s.TermUpperBound(s.IDF(t), m)
	}
	return sum
}
