package qproc

import (
	"fmt"
	"sort"

	"dwr/internal/conc"
	"dwr/internal/index"
	"dwr/internal/partition"
	"dwr/internal/rank"
)

// TermEngine is a pipelined term-partitioned query processing cluster
// (Moffat, Webber, Zobel, Baeza-Yates): each server stores the complete
// posting lists of its term range over the whole collection; a query
// visits only the servers owning its terms, in a pipeline, each adding
// its terms' score contributions to a travelling accumulator set, and
// the last server extracts the top-k.
//
// Wall-clock execution fans the per-server posting scans out over a
// bounded worker pool: score contributions are additive, so each server
// computes its local delta map in parallel and the broker folds the
// deltas into the travelling accumulator in route order at the gather
// point. The simulated cost model still charges the pipeline shape —
// per-hop accumulator sizes, latency as the SUM of hop times — so the
// paper's comparison against scatter-gather is unchanged at any worker
// count.
type TermEngine struct {
	broker
	tp      partition.TermPartition
	servers []*index.Index
	scorer  *rank.Scorer // term-partitioned servers know exact global stats
}

// NewTermEngine builds per-server term-sliced indexes from docs under
// the given term partition; the K server indexes are constructed
// concurrently. Every server's index carries the full document table
// (with true document lengths) but only its own terms' postings,
// matching the vertical slicing of Figure 1. Configuration is by
// functional options (WithResultCache, WithFaultPolicy, WithInjector),
// applied on top of the ambient defaults (SetDefaultOptions).
func NewTermEngine(opts index.Options, docs []index.Doc, tp partition.TermPartition, options ...Option) (*TermEngine, error) {
	if tp.K <= 0 {
		return nil, fmt.Errorf("qproc: term partition with no servers")
	}
	eo := resolveOptions(options)
	builders := make([]*index.MemBuilder, tp.K)
	for i := range builders {
		builders[i] = index.NewBuilder(opts)
	}
	for _, d := range docs {
		for s := 0; s < tp.K; s++ {
			if err := builders[s].AddDocumentFiltered(d.Ext, d.Terms, func(t string) bool {
				return tp.Assign[t] == s
			}); err != nil {
				return nil, err
			}
		}
	}
	e := &TermEngine{broker: newBroker(eo, tp.K), tp: tp}
	e.servers = index.BuildAll(builders)
	stats := make([]index.Stats, len(e.servers))
	conc.Do(len(e.servers), 0, func(i int) {
		stats[i] = e.servers[i].LocalStats(nil)
	})
	merged := index.MergeStats(stats...)
	// Every server indexed every document, so doc counts were multiplied
	// K times by the merge; correct with any single server's view.
	merged.NumDocs = e.servers[0].NumDocs()
	merged.TotalLen = e.servers[0].TotalLen()
	e.scorer = rank.NewScorer(rank.FromGlobal(merged))
	return e, nil
}

// accEntry is one posting's score contribution, recorded in scan order
// so the gather can replay the exact addition sequence of the serial
// pipeline (floating-point addition is not associative; folding
// per-server sums first would change low-order bits).
type accEntry struct {
	doc   int // external document ID
	delta float64
}

// hopEval is one term server's locally computed contribution: the
// per-posting score deltas its terms add to the travelling accumulator,
// plus the resource counters the gather folds in route order.
type hopEval struct {
	entries []accEntry
	es      rank.EvalStats
}

// Query evaluates terms through the pipeline and returns the top-k.
func (e *TermEngine) Query(terms []string, k int) QueryResult {
	return e.QueryTopKWithin(terms, k, 0)
}

// QueryTopKWithin implements DeadlineQuerier: Query with a latency
// budget (deadlineMs > 0). The pipeline is abandoned at the first hop
// that would start after the budget is spent, the remaining hops are
// never contacted, and the answer is a deadline failure rather than a
// late delivery.
func (e *TermEngine) QueryTopKWithin(terms []string, k int, deadlineMs float64) QueryResult {
	if k <= 0 {
		k = 10
	}
	var key string
	if e.rcache != nil {
		key = TermCacheKey(terms, k)
	}
	return e.answer(key, deadlineMs, func(tick int64) QueryResult {
		return e.evaluate(tick, terms, k, deadlineMs)
	})
}

// evaluate is a result-cache miss: one trip down the pipeline.
func (e *TermEngine) evaluate(tick int64, terms []string, k int, deadlineMs float64) QueryResult {
	var qr QueryResult
	route := e.tp.PartsOf(terms)
	qr.ServersContacted = len(route)
	qr.Rounds = len(route) // pipeline hops
	if len(route) == 0 {
		return qr
	}

	// Scatter: every visited server scans its own terms' postings into a
	// private contribution list, preserving term-then-posting order.
	hops := make([]hopEval, len(route))
	conc.Do(len(route), 0, func(i int) {
		s := route[i]
		ix := e.servers[s]
		h := &hops[i]
		var its index.Iterator
		for _, t := range dedupTerms(terms) {
			if e.tp.Assign[t] != s {
				continue
			}
			it := ix.PostingsInto(&its, t)
			if it == nil {
				continue
			}
			h.es.BytesRead += int64(ix.PostingBytes(t))
			h.es.ListsAccessed++
			idf := e.scorer.IDF(t)
			for it.Next() {
				h.es.PostingsDecoded++
				doc := it.Doc()
				h.entries = append(h.entries, accEntry{
					doc:   ix.ExtID(doc),
					delta: e.scorer.Term(it.TF(), ix.DocLen(doc), idf),
				})
			}
			h.es.BytesDecoded += it.BytesDecoded()
		}
	})

	// Gather: rebuild the travelling accumulator hop by hop, in route
	// order, charging each hop the accumulator size it would have seen —
	// the communication overhead Section 5 highlights. Doc ordinals are
	// shared because every server indexed the same document list.
	acc := make(map[int]float64)
	latency := 0.0
	lost := 0
	timedOut := false
	var added []int
	e.mu.Lock()
	for i, s := range route {
		h := &hops[i]
		if deadlineMs > 0 && latency >= deadlineMs {
			// Budget spent before this hop could start: the pipeline is
			// abandoned and the remaining servers are never contacted
			// (their scatter work above is wasted, as it would be on a
			// real cluster that cancels in-flight fragments late).
			timedOut = true
			qr.ServersContacted = i
			qr.Rounds = i
			break
		}
		// The hop's service cost depends on the accumulator size the
		// server would forward, so size it first: new documents enter as
		// zero placeholders, which the fold below then adds to exactly as
		// it would to a missing entry.
		added = added[:0]
		for _, en := range h.entries {
			if _, ok := acc[en.doc]; !ok {
				acc[en.doc] = 0
				added = append(added, en.doc)
			}
		}
		service := serviceMs(h.es.PostingsDecoded) + accumulatorMs(len(acc))
		remaining := 0.0
		if deadlineMs > 0 {
			remaining = deadlineMs - latency
		}
		ms, ok := e.call(tick, s, service, remaining, &qr)
		latency += ms
		if !ok {
			// Lost hop: the pipeline routes around the server, so its
			// terms' contributions are missing downstream and its
			// placeholders must not inflate the accumulator.
			for _, d := range added {
				delete(acc, d)
			}
			lost++
			continue
		}
		for _, en := range h.entries {
			acc[en.doc] += en.delta
		}
		// The partially-resolved query (accumulator) moves to the next
		// server.
		qr.addEval(h.es, len(acc))
	}
	e.mu.Unlock()
	latency += e.lanMs // final answer back to the broker

	rs := make([]rank.Result, 0, len(acc))
	for doc, score := range acc {
		rs = append(rs, rank.Result{Doc: doc, Score: score})
	}
	rank.SortResults(rs)
	if len(rs) > k {
		rs = rs[:k]
	}
	qr.Results = rs
	qr.LatencyMs = latency
	e.degrade(&qr, lost, len(route), "pipeline hops")
	if timedOut && qr.Err == nil {
		qr.Err = fmt.Errorf("pipeline abandoned mid-route: %w", ErrDeadlineExceeded)
		qr.Results = nil
		qr.LatencyMs = deadlineMs
	}
	return qr
}

func dedupTerms(terms []string) []string {
	seen := make(map[string]bool, len(terms))
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if !seen[t] {
			seen[t] = true
			out = append(out, t)
		}
	}
	sort.Strings(out)
	return out
}
