package qproc

import (
	"errors"
	"fmt"
)

// ErrDeadlineExceeded is returned (via QueryResult.Err) when a query
// carried an explicit latency budget (DocQueryOptions.DeadlineMs or
// QueryTopKWithin) and the cost model puts the answer past it. The
// caller — a driver stepping virtual time, such as server.Run — gets no
// results and a latency capped at the budget: that is when it would have
// stopped waiting. Inspect with errors.Is.
var ErrDeadlineExceeded = errors.New("qproc: query deadline exceeded")

// QueryTopKWithin implements Engine: QueryTopK with a latency budget
// whose remainder bounds each partition call's retry/hedge loop and
// which is enforced on the merged answer.
func (e *DocEngine) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	return e.Query(terms, DocQueryOptions{K: k, Stats: e.topkStats, DeadlineMs: deadlineMs})
}

// QueryTopKWithin implements Engine: the query is routed from
// region 0 at virtual hour Now under the canonical cache key of the
// term list — on the mediated path when a mediator is configured
// (WithMediator), on Submit's replica path otherwise, so a deadline never
// changes which path a query takes. Site selection happens before the
// budget is known to be busted, so the check is on the routed answer: an
// over-budget reply is dropped — and not cached — rather than delivered
// late.
func (m *MultiSite) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	key := NormalizeQueryKey(terms)
	p := m.replicaPath(key, m.Now)
	if m.mediation != nil {
		p = m.mediatedPath(terms, key, k)
	}
	return m.route(terms, 0, m.Now, k, deadlineMs, p).QueryResult
}

// enforceDeadline converts an answer that arrived after its budget into
// a deadline failure: no results, latency capped at the budget (the
// moment the caller stopped waiting). Engines apply it to every answer
// they return.
func enforceDeadline(qr *QueryResult, deadlineMs float64) {
	if deadlineMs <= 0 || qr.LatencyMs <= deadlineMs || qr.Err != nil {
		return
	}
	qr.Err = fmt.Errorf("answer needed %.2f ms of a %.2f ms budget: %w",
		qr.LatencyMs, deadlineMs, ErrDeadlineExceeded)
	qr.Results = nil
	qr.LatencyMs = deadlineMs
}
