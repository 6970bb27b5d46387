package qproc

import (
	"fmt"
	"runtime"

	"dwr/internal/rank"
)

// The broker frame is DocEngine's part that does not depend on where a
// partition's postings live: the busy-load ledger, the result cache, the
// fault runtime, and the one answer pipeline — result-cache probe →
// evaluate → deadline → cache put → outcome tally. What the gather does
// per partition goes through call and addEval.

// K returns the engine's partition count.
func (e *DocEngine) K() int { return len(e.busyMs) }

// ResultCache returns the installed result cache (nil if none).
func (e *DocEngine) ResultCache() *ResultCache { return e.rcache }

// idleWidth is the fan-out of one scatter wave: the processors the
// other queries in flight leave idle — the rule of Orlando et al.
// (PAPERS.md), who run a query in parallel only on processors the node
// has idle. 1 (or less) runs the wave inline. The width never changes
// what a wave computes, only where.
func (e *DocEngine) idleWidth() int {
	return runtime.GOMAXPROCS(0) - int(e.inflight.Load()-1)
}

// BusyMs returns accumulated per-partition busy time — the Figure 2
// measurement.
func (e *DocEngine) BusyMs() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.busyMs...)
}

// Stats implements Engine.
func (e *DocEngine) Stats() EngineStats {
	e.mu.Lock()
	st := EngineStats{Queries: e.evaluated + int(e.hits.Load()), Degraded: e.degraded, Failed: e.failed}
	if e.rb != nil {
		st.Faults = e.rb.snapshot()
	}
	e.mu.Unlock()
	if e.rcache != nil {
		st.ResultCache = e.rcache.Stats()
	}
	return st
}

// Health implements Engine: partitions marked down (SetDown) plus
// partitions whose every replica the injector fails at the next
// evaluated query's tick, so Health answers "could the next query use
// this partition".
func (e *DocEngine) Health() Health {
	e.mu.Lock()
	down := append([]bool(nil), e.downs...)
	tick := int64(e.evaluated) + 1
	e.mu.Unlock()
	return e.rb.health(down, tick)
}

// answer is the one query pipeline. key is the query's result-cache key,
// or "" when no cache is installed (the key is formatted only when one
// is). A hit answers at the broker with the stored results, zero work
// counters and one local lookup of latency. A miss draws the next
// fault-schedule tick and is evaluated; a complete answer is then
// stored. Degraded, refused and over-budget answers are never cached:
// they would keep being served after the partitions recover.
func (e *DocEngine) answer(key string, deadlineMs float64, eval func(tick int64) QueryResult) QueryResult {
	var qr QueryResult
	var hit []rank.Result
	ok := false
	if key != "" {
		hit, ok = e.rcache.Get(key)
	}
	if ok {
		e.hits.Add(1)
		qr = QueryResult{Results: hit, FromCache: true, LatencyMs: cacheHitMs}
	} else {
		e.mu.Lock()
		e.evaluated++
		tick := int64(e.evaluated)
		e.mu.Unlock()
		qr = eval(tick)
	}
	enforceDeadline(&qr, deadlineMs)
	if qr.Err == nil && !qr.Degraded {
		if key != "" && !qr.FromCache {
			e.rcache.Put(key, qr)
		}
		return qr
	}
	e.mu.Lock()
	if qr.Err != nil {
		e.failed++
	} else {
		e.degraded++
	}
	e.mu.Unlock()
	return qr
}

// call books one partition call at the serial gather (e.mu held): the
// partition's busy time, the answer's Retries, and a loss when the
// partition never answered within the fault policy's budget — its
// contribution is then missing and its server did no accountable work
// for the query. A clean call costs the LAN hop plus the service time,
// which is also the whole story without WithFaults. budgetMs is what is
// left of the query's deadline (+Inf without one).
func (e *DocEngine) call(tick int64, part int, serviceMs, budgetMs float64, qr *QueryResult) (latencyMs float64, ok bool) {
	if e.rb != nil {
		cr := e.rb.call(tick, part, lanMs, serviceMs, budgetMs)
		qr.Retries += cr.retries
		if !cr.ok {
			e.rb.lost()
			return cr.latencyMs, false
		}
		latencyMs = cr.latencyMs
	} else {
		latencyMs = lanMs + serviceMs
	}
	e.busyMs[part] += serviceMs
	return latencyMs, true
}

// degrade applies the fault policy's degradation mode to an answer that
// is missing lost of its of target partitions: best-effort keeps the
// partial answer and flags it Degraded, fail-fast refuses it with
// ErrUnavailable. An answer missing every target holds nothing to keep,
// so best-effort refuses it too — unless it came back past deadlineMs,
// its budget (<= 0: none), where the frame's deadline verdict stands.
func (e *DocEngine) degrade(qr *QueryResult, lost, of int, deadlineMs float64) {
	if lost == 0 {
		return
	}
	late := deadlineMs > 0 && qr.LatencyMs > deadlineMs
	if e.rb != nil && e.rb.policy.Mode == FailFast || lost == of && !late {
		qr.Err = fmt.Errorf("%d of %d partitions unavailable: %w", lost, of, ErrUnavailable)
		qr.Results = nil
		return
	}
	qr.Degraded = true
}

// addEval folds one unit's evaluation counters, and the results-many
// entries it ships onward, into the answer.
func (qr *QueryResult) addEval(es rank.EvalStats, results int) {
	qr.PostingsDecoded += es.PostingsDecoded
	qr.ListsAccessed += es.ListsAccessed
	qr.PostingBytesRead += es.BytesRead
	qr.PostingBytesDecoded += es.BytesDecoded
	qr.BytesTransferred += resultBytes(results)
}
