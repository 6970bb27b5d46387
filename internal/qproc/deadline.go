package qproc

import (
	"errors"
	"fmt"
)

// ErrDeadlineExceeded is returned (via QueryResult.Err) when a query
// carried an explicit latency budget (DocQueryOptions.DeadlineMs or
// QueryTopKWithin) and the engine could not deliver the answer inside
// it. The caller — typically a serving front-end that promised its user
// a response time — gets no results and a latency capped at the budget:
// that is when it would have stopped waiting. Inspect with errors.Is.
var ErrDeadlineExceeded = errors.New("qproc: query deadline exceeded")

// DeadlineQuerier is the optional engine capability a serving front-end
// uses to propagate its per-request latency budget into the engine:
// like QueryTopK, but the evaluation is abandoned once deadlineMs of
// virtual time is spent (deadlineMs <= 0 means no budget). How deep the
// budget reaches depends on the engine: DocEngine threads it into every
// partition call's retry/hedge loop, TermEngine cuts the pipeline short
// at the hop that busts the budget, MultiSite checks the final answer.
type DeadlineQuerier interface {
	QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult
}

// Every engine propagates deadlines, checked at compile time.
var (
	_ DeadlineQuerier = (*DocEngine)(nil)
	_ DeadlineQuerier = (*TermEngine)(nil)
	_ DeadlineQuerier = (*MultiSite)(nil)
	_ DeadlineQuerier = (*LiveEngine)(nil)
)

// QueryTopKWithin implements DeadlineQuerier: QueryTopK with a per-call
// latency budget threaded into each partition call's retry/hedge loop
// (tightening any FaultPolicy.DeadlineMs) and enforced on the merged
// answer.
func (e *DocEngine) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	return e.Query(terms, DocQueryOptions{K: k, Stats: e.topkStats, DeadlineMs: deadlineMs})
}

// QueryTopKWithin implements DeadlineQuerier: the query is routed from
// HomeRegion at virtual hour Now under the canonical cache key of the
// term list — on the mediated path when a mediator is configured
// (WithMediator), on Submit's replica path otherwise, so a deadline never
// changes which path a query takes. Site selection happens before the
// budget is known to be busted, so the check is on the routed answer: an
// over-budget reply is dropped — and not cached — rather than delivered
// late.
func (m *MultiSite) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	key := NormalizeQueryKey(terms)
	p := m.replicaPath(key, m.Now)
	if m.mediator != nil {
		p = m.mediatedPath(terms, key, k)
	}
	return m.route(terms, m.HomeRegion, m.Now, k, deadlineMs, p).QueryResult
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
