// Fixture: the deadline rule also covers cmd/dwrserve (unit
// "dwrserve").
package main

import "time"

type engine interface {
	QueryTopKWithin(terms []string, k int, deadlineMs float64) int
}

func serve(e engine, terms []string, deadline time.Time) int {
	return e.QueryTopKWithin(terms, 10, float64(time.Until(deadline).Milliseconds())) // want deadline
}
