// Fixture: a dot import puts the clock and the global source in file
// scope under their bare names. They are the same sinks.
package simweb

import (
	. "math/rand"
	. "time"
)

func dotSites() int {
	start := Now()             // want wallclock
	_ = Since(start)           // want wallclock
	r := New(NewSource(1))     // want seed
	return Intn(3) + r.Intn(2) // want globalrand
}
