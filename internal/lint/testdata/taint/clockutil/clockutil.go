// Fixture: a NON-deterministic helper package (unit "clockutil" is not
// in the Deterministic set). Sinks here seed the taint analysis; the
// findings appear at the deterministic call sites in ../crawler.
package clockutil

import "time"

// WallNow is a taint root: a direct, unsuppressed wall-clock sink.
func WallNow() time.Time {
	return time.Now()
}

// Elapsed is transitively tainted through WallNow.
func Elapsed(since time.Time) float64 {
	return WallNow().Sub(since).Seconds()
}

// Clock hands the wall clock out as a value: a taint root although it
// never calls time.Now itself.
func Clock() func() time.Time {
	return time.Now
}

// SafeID is pure: no sink anywhere below it.
func SafeID(n int) int {
	return n*2654435761 + 1
}

// AllowedNow carries a justified allow, so it never seeds taint: the
// directive asserts the site is behaviorally harmless, and callers must
// not be forced to re-annotate.
func AllowedNow() time.Time {
	return time.Now() //dwrlint:allow wallclock reporting-only timestamp outside the replayed path
}
