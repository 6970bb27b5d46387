// Fixture: the virtual-time driver, (simState).start, steps the clock
// the engine's budget is in, so it alone may hand the engine the
// remainder.
package server

type simState struct{ q querier }

func (s *simState) start(terms []string, arrivedMs, nowMs, budgetMs float64) int {
	return s.q.QueryTopKWithin(terms, 10, budgetMs-(nowMs-arrivedMs))
}

// restart has the driver's receiver but not its name.
func (s *simState) restart(terms []string, budgetMs float64) int {
	return s.q.QueryTopKWithin(terms, 10, budgetMs) // want deadline
}
