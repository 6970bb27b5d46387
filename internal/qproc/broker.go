package qproc

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"dwr/internal/rank"
)

// broker is the part of a query-processing cluster that does not depend
// on what a unit is: the LAN latency, the busy-load ledger, the result
// cache, the fault runtime, and the one answer pipeline — result-cache
// probe → evaluate → deadline → cache put → outcome tally. DocEngine
// (units are partition views) and TermEngine (units are pipelined term
// servers) embed it and supply only how a cache miss is evaluated; what
// their gathers do per unit goes through call and addEval.
type broker struct {
	lanMs float64
	// inflight counts the queries inside an engine's evaluation; it
	// caps the fan-out to the processors they leave idle (idleWidth).
	inflight atomic.Int64
	mu       sync.Mutex
	busyMs   []float64 // per unit
	// evaluated counts the queries that missed the result cache and is
	// the fault-schedule clock: a hit consults no unit, so it must not
	// move the injector's timeline. hits counts the rest, off the lock —
	// a hit never takes mu. Accepted queries are the two together.
	evaluated        int
	hits             atomic.Int64
	degraded, failed int
	// rcache is the broker-level result cache; nil by default, configured
	// at construction (WithResultCache).
	rcache *ResultCache
	// rb is the robustness runtime (deadline/retry/hedge policy over the
	// fault-injection layer); nil unless fault options were given.
	rb *robustness
}

func newBroker(eo engineOptions, units int) broker {
	return broker{
		lanMs:  0.3,
		busyMs: make([]float64, units),
		rcache: eo.resultCache(),
		rb:     eo.robust(units),
	}
}

// K returns the engine's unit count: partitions or term servers.
func (b *broker) K() int { return len(b.busyMs) }

// ResultCache returns the installed result cache (nil if none).
func (b *broker) ResultCache() *ResultCache { return b.rcache }

// idleWidth is the fan-out of one scatter wave: the processors the
// other queries in flight leave idle — the rule of Orlando et al.
// (PAPERS.md), who run a query in parallel only on processors the node
// has idle. 1 (or less) runs the wave inline. The width never changes
// what a wave computes, only where.
func (b *broker) idleWidth() int {
	return runtime.GOMAXPROCS(0) - int(b.inflight.Load()-1)
}

// BusyMs returns accumulated per-unit busy time — the Figure 2
// measurement.
func (b *broker) BusyMs() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.busyMs...)
}

// Stats implements Engine.
func (b *broker) Stats() EngineStats {
	b.mu.Lock()
	st := EngineStats{Queries: b.evaluated + int(b.hits.Load()), Degraded: b.degraded, Failed: b.failed}
	if b.rb != nil {
		st.Faults = b.rb.snapshot()
	}
	b.mu.Unlock()
	if b.rcache != nil {
		st.ResultCache = b.rcache.Stats()
	}
	return st
}

// health reports the units in down plus those whose every replica the
// injector fails at the next evaluated query's tick, so Health answers
// "could the next query use this unit". It marks the latter in down.
func (b *broker) health(down []bool) Health {
	b.mu.Lock()
	tick := int64(b.evaluated) + 1
	b.mu.Unlock()
	return b.rb.health(down, tick)
}

// answer is the one query pipeline. key is the engine's result-cache key
// for the query, or "" when nothing may be cached: no cache is installed
// (engines format the key only when one is), or the query is a
// TermEngine.QueryPhrase, whose position encoding no key function names.
// A hit answers at the broker with the stored results, zero work
// counters and one local lookup of latency. A miss draws the next
// fault-schedule tick and is evaluated; a complete answer is then
// stored. Degraded, refused and over-budget answers are never cached:
// they would keep being served after the units recover.
func (b *broker) answer(key string, deadlineMs float64, eval func(tick int64) QueryResult) QueryResult {
	var qr, hit QueryResult
	ok := false
	if key != "" {
		hit, ok = b.rcache.Get(key)
	}
	if ok {
		b.hits.Add(1)
		qr = QueryResult{Results: hit.Results, FromCache: true, LatencyMs: cacheHitMs}
	} else {
		b.mu.Lock()
		b.evaluated++
		tick := int64(b.evaluated)
		b.mu.Unlock()
		qr = eval(tick)
	}
	enforceDeadline(&qr, deadlineMs)
	if qr.Err == nil && !qr.Degraded {
		if key != "" && !qr.FromCache {
			b.rcache.Put(key, qr)
		}
		return qr
	}
	b.mu.Lock()
	if qr.Err != nil {
		b.failed++
	} else {
		b.degraded++
	}
	b.mu.Unlock()
	return qr
}

// call books one unit call at the serial gather (b.mu held): the unit's
// busy time, the answer's Retries and Hedges, and a loss when the unit
// never answered within the fault policy's budget — its contribution is
// then missing and its server did no accountable work for the query. A
// clean call costs the LAN hop plus the service time, which is also the
// whole story when no fault options were given. deadlineMs > 0 tightens
// the policy's per-call deadline.
func (b *broker) call(tick int64, unit int, serviceMs, deadlineMs float64, qr *QueryResult) (latencyMs float64, ok bool) {
	if b.rb != nil {
		cr := b.rb.call(tick, unit, b.lanMs, serviceMs, deadlineMs)
		qr.Retries += cr.retries
		qr.Hedges += cr.hedges
		if !cr.ok {
			b.rb.lost()
			return cr.latencyMs, false
		}
		latencyMs = cr.latencyMs
	} else {
		latencyMs = b.lanMs + serviceMs
	}
	b.busyMs[unit] += serviceMs
	return latencyMs, true
}

// degrade applies the fault policy's degradation mode to an answer that
// is missing lost of its units: best-effort keeps the partial answer and
// flags it Degraded, fail-fast refuses it with ErrUnavailable.
func (b *broker) degrade(qr *QueryResult, lost, of int, units string) {
	if lost == 0 {
		return
	}
	if b.rb != nil && b.rb.policy.Mode == FailFast {
		qr.Err = fmt.Errorf("%d of %d %s unavailable: %w", lost, of, units, ErrUnavailable)
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
