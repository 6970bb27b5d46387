// Fixture: test files on serving paths are exempt from the deadline
// rule — stub engines legitimately implement and delegate
// QueryTopKWithin.
package server

import "time"

func stubDrive(q querier, terms []string) int {
	time.Sleep(time.Millisecond)
	return q.QueryTopKWithin(terms, 10, 5)
}
