// Fixture: directive-exempted sites. These produce Allowed findings —
// invisible to the normal run, listed by -fixlist.
package simweb

import "time"

// trailingAllow exempts with a same-line directive.
func trailingAllow() time.Time {
	return time.Now() //dwrlint:allow wallclock reporting-only timestamp
}

// precedingAllow exempts with a directive on the line above.
func precedingAllow() {
	//dwrlint:allow wallclock coarse backoff outside the replayed path
	time.Sleep(time.Millisecond)
}

// wrongRule shows a directive for one rule does not leak to another:
// the seed allow below is irrelevant here, so the wallclock finding
// stands.
func wrongRule() time.Time {
	//dwrlint:allow seed justification for the wrong rule
	return time.Now() // want wallclock
}
