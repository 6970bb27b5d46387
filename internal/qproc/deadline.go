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

// QueryTopKWithin implements DeadlineQuerier: the query is submitted
// from HomeRegion at virtual hour Now, with the canonical cache key of
// the term list. With a mediator configured (WithMediator) it takes the
// federated path — collection selection decides the site subset;
// without one the single-executor Submit path is byte-identical to the
// pre-mediator broker. Site selection happens before the budget is known
// to be busted, so the check is on the final routed answer: an
// over-budget reply is dropped, not delivered late. Like Submit, it is
// meant for a single driving goroutine.
func (m *MultiSite) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	var r SiteQueryResult
	if m.mediator != nil {
		r = m.QueryFederated(terms, NormalizeQueryKey(terms), m.HomeRegion, m.Now, k)
	} else {
		r = m.Submit(terms, NormalizeQueryKey(terms), m.HomeRegion, m.Now, k)
	}
	qr := r.QueryResult
	EnforceDeadline(&qr, deadlineMs)
	return qr
}

// EnforceDeadline converts an answer that arrived after its budget into
// a deadline failure: no results, latency capped at the budget (the
// moment the caller stopped waiting). Engines apply it to every answer
// they return; it is exported for engines defined outside this package
// (mediator.Federation).
func EnforceDeadline(qr *QueryResult, deadlineMs float64) {
	if deadlineMs <= 0 || qr.LatencyMs <= deadlineMs || qr.Err != nil {
		return
	}
	qr.Err = fmt.Errorf("answer needed %.2f ms of a %.2f ms budget: %w",
		qr.LatencyMs, deadlineMs, ErrDeadlineExceeded)
	qr.Results = nil
	qr.LatencyMs = deadlineMs
}
