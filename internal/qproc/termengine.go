package qproc

import (
	"fmt"
	"sort"
	"sync"

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
// computes its local delta map in parallel and the gather folds the
// deltas into the travelling accumulator in route order. The simulated
// cost model still charges the pipeline shape — per-hop accumulator
// sizes, latency as the SUM of hop times — so the paper's comparison
// against scatter-gather is unchanged at any worker count.
//
// TermEngine is the paper's measured comparator (Figure 2, C6, C20), not
// a serving engine: it has no result cache, fault policy or deadline.
type TermEngine struct {
	tp      partition.TermPartition
	servers []*index.Index
	scorer  *rank.Scorer // term-partitioned servers know exact global stats
	mu      sync.Mutex
	busyMs  []float64 // per server, guarded by mu
}

// NewTermEngine builds per-server term-sliced indexes from docs under
// the given term partition; the K server indexes are constructed
// concurrently. Every server's index carries the full document table
// (with true document lengths) but only its own terms' postings,
// matching the vertical slicing of Figure 1.
func NewTermEngine(opts index.Options, docs []index.Doc, tp partition.TermPartition) (*TermEngine, error) {
	if tp.K <= 0 {
		return nil, fmt.Errorf("qproc: term partition with no servers")
	}
	servers, err := index.BuildAll(opts, tp.K, func(s int, b *index.MemBuilder) (int, error) {
		keep := func(t string) bool { return tp.Assign[t] == s }
		for i, d := range docs {
			if err := b.AddDocumentFiltered(d.Ext, d.Terms, keep); err != nil {
				return i, err
			}
		}
		return 0, nil
	})
	if err != nil {
		return nil, err
	}
	e := &TermEngine{tp: tp, servers: servers, busyMs: make([]float64, tp.K)}
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
	if k <= 0 {
		k = 10
	}
	var qr QueryResult
	route := e.tp.PartsOf(terms)
	qr.ServersContacted = len(route)
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
	// order, charging each hop the accumulator size it forwards — the
	// communication overhead Section 5 highlights. Doc ordinals are
	// shared because every server indexed the same document list.
	acc := make(map[int]float64)
	latency := 0.0
	e.mu.Lock()
	for i, s := range route {
		h := &hops[i]
		for _, en := range h.entries {
			acc[en.doc] += en.delta
		}
		latency += e.hop(s, serviceMs(h.es.PostingsDecoded)+accumulatorMs(len(acc)))
		// The partially-resolved query (accumulator) moves to the next
		// server.
		qr.addEval(h.es, len(acc))
	}
	e.mu.Unlock()
	latency += lanMs // final answer back to the broker

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
	return qr
}

// hop books one pipeline hop on server s (e.mu held): the server is busy
// for serviceMs, and the hop costs the LAN message plus that service.
func (e *TermEngine) hop(s int, serviceMs float64) (latencyMs float64) {
	e.busyMs[s] += serviceMs
	return lanMs + serviceMs
}

// BusyMs returns accumulated per-server busy time — the Figure 2
// measurement.
func (e *TermEngine) BusyMs() []float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return append([]float64(nil), e.busyMs...)
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
