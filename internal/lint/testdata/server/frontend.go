// Fixture: deadline discipline on a serving path (unit "server"). This
// file reads the wall clock, so it judges its own budget and asks the
// engine with none; handing QueryTopKWithin the wall-clock remainder
// would charge it against the engine's modelled time.
package server

import "time"

type querier interface {
	QueryTopK(terms []string, k int) int
	QueryTopKWithin(terms []string, k int, deadlineMs float64) int
}

func handle(q querier, terms []string, arrived time.Time, budget time.Duration) int {
	n := q.QueryTopK(terms, 10)
	if time.Since(arrived) > budget {
		return -1
	}
	return n
}

func propagate(q querier, terms []string, arrived time.Time, budgetMs float64) int {
	left := budgetMs - float64(time.Since(arrived).Milliseconds())
	return q.QueryTopKWithin(terms, 10, left) // want deadline
}

// delegate computes the same wall-clock remainder and hands it to
// queue.go's clock-free helper.
func delegate(q querier, terms []string, arrived time.Time, budgetMs float64) int {
	return query(q, terms, budgetMs-float64(time.Since(arrived).Milliseconds()))
}
