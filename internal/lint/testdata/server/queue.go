// Fixture: a clock-free helper file is no way round the deadline rule.
// frontend.go computes the remainder from the wall clock and passes it
// here; this file imports no time, and the call is still the finding.
package server

func query(q querier, terms []string, leftMs float64) int {
	return q.QueryTopKWithin(terms, 10, leftMs) // want deadline
}
