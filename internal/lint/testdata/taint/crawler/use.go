// Fixture: a deterministic package (unit "crawler") calling helpers
// from a non-deterministic one. The file names no wall-clock or
// global-rand function, so the determinism rule sees nothing — only the
// interprocedural taint analysis can flag the leaking helpers.
package crawler

import (
	"time"

	"dwr/internal/lint/testdata/taint/clockutil"
)

// directLeak calls the sink's wrapper one hop away.
func directLeak() time.Time {
	return clockutil.WallNow() // want taint
}

// transitiveLeak reaches the sink through two hops.
func transitiveLeak(t time.Time) float64 {
	return clockutil.Elapsed(t) // want taint
}

// valueLeak calls the clock a helper hands out as a value.
func valueLeak() time.Time {
	return clockutil.Clock()() // want taint
}

// pureUse calls a helper with no sink below it: no finding.
func pureUse() int {
	return clockutil.SafeID(7)
}

// allowedSinkUse calls a helper whose sink carries its own allow
// directive; suppressed sinks never seed taint, so no finding.
func allowedSinkUse() time.Time {
	return clockutil.AllowedNow()
}

// annotatedLeak is the audited-exemption form: the call is tainted but
// the site is justified, so it lands on the fixlist, not the violations.
func annotatedLeak() time.Time {
	return clockutil.WallNow() //dwrlint:allow taint startup banner only; never inside a replay
}
