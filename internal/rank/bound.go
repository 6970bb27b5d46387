package rank

import (
	"slices"

	"dwr/internal/index"
)

// TermUpperBound bounds the score contribution of one term for every
// document in the list (or merged lists) summarized by m, from resident
// metadata alone (no posting bytes are touched): the list's largest tf
// scored at its shortest document, which dominates every real posting
// because Term is monotone increasing in tf and decreasing in docLen. It
// is the only place a summary becomes a score bound: evaluateTopK orders
// a segment's lists by it and QueryBound sums it over a partition, so
// evaluator and broker obey one validity rule.
func (s *Scorer) TermUpperBound(idf float64, m index.TermScoreMeta) float64 {
	return s.Term(m.MaxTF, int(m.MinLen), idf)
}

// QueryBound bounds the disjunctive score of any single document in the
// partition view v for the query terms, using only the resident per-term
// metadata (merged over the view's segments) — the broker-side estimate
// a threshold-sharing scheduler orders and skips partitions by. Terms
// absent from the partition contribute nothing; a bound of 0 therefore
// means no query term occurs in the partition. A repeated term counts
// once; the dedup scans the query's own prefix, so nothing is allocated.
func QueryBound(v *index.Manifest, s *Scorer, terms []string) float64 {
	sum := 0.0
	for i, t := range terms {
		if slices.Contains(terms[:i], t) {
			continue
		}
		m, ok := v.TermScoreMeta(t)
		if !ok {
			continue
		}
		sum += s.TermUpperBound(s.IDF(t), m)
	}
	return sum
}
