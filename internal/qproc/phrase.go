package qproc

import "dwr/internal/rank"

// Phrase evaluation across the two architectures (§5, Communication).
// Document-partitioned (DocQueryOptions.Phrase): each partition
// intersects positions locally and ships only its top-k — positions
// never cross the network. Pipelined term-partitioned: the candidate
// phrase-start positions travel with the accumulator between term
// servers, and their encoding (raw vs delta+varint compressed) decides
// the communication bill.

// QueryPhrase evaluates an exact-phrase query through the term-
// partitioned pipeline. compressPositions selects the wire encoding of
// the travelling candidate positions: raw 4-byte integers, or the
// delta+varint encoding the paper recommends.
//
// Unlike Query, the phrase pipeline stays serial per query: each hop
// prunes its posting scan by the candidate set the previous hop shipped
// and aborts the route once the intersection empties, so hop h's work
// genuinely depends on hop h-1's output; ServersContacted counts the hops
// taken. Only the busy-load accounting is lock-guarded for concurrent
// callers.
func (e *TermEngine) QueryPhrase(terms []string, k int, compressPositions bool) QueryResult {
	if k <= 0 {
		k = 10
	}
	var qr QueryResult
	if len(terms) == 0 {
		return qr
	}
	// A term no server owns occurs in no document, so the phrase matches
	// nothing whichever servers the other terms route through; the broker
	// holds the assignment and answers without contacting anyone.
	for _, t := range terms {
		if _, owned := e.tp.Assign[t]; !owned {
			return qr
		}
	}
	route := e.tp.PartsOf(terms)

	// Candidate phrase-start positions travel server to server. The
	// intersection ∩ᵢ(positions(termᵢ)−i) is commutative, so slots are
	// processed grouped by owning server, in route order.
	var starts map[int][]int32
	latency := 0.0
	for _, s := range route {
		ix := e.servers[s]
		var es rank.EvalStats
		for slot, t := range terms {
			if e.tp.Assign[t] != s {
				continue
			}
			if starts = rank.PhraseStep(ix, t, slot, starts, &es); len(starts) == 0 {
				break
			}
		}
		qr.ServersContacted++
		e.mu.Lock()
		latency += e.hop(s, serviceMs(es.PostingsDecoded)+accumulatorMs(len(starts)))
		e.mu.Unlock()
		// Ship the accumulator: per doc an 8-byte header plus positions.
		qr.addEval(es, 0)
		for _, ss := range starts {
			qr.BytesTransferred += 8
			if compressPositions {
				qr.BytesTransferred += int64(rank.EncodedPositionsSize(ss))
			} else {
				qr.BytesTransferred += int64(4 * len(ss))
			}
		}
		if len(starts) == 0 {
			break
		}
	}
	latency += lanMs

	// Final scoring at the last pipeline server.
	idf := 0.0
	for _, t := range dedupTerms(terms) {
		if v := e.scorer.IDF(t); v > idf {
			idf = v
		}
	}
	last := e.servers[route[len(route)-1]]
	rs := make([]rank.Result, 0, len(starts))
	for ext, ss := range starts {
		doc := last.InternalID(ext)
		if doc < 0 {
			continue
		}
		rs = append(rs, rank.Result{Doc: ext, Score: e.scorer.Term(int32(len(ss)), last.DocLen(doc), idf)})
	}
	rank.SortResults(rs)
	if len(rs) > k {
		rs = rs[:k]
	}
	qr.Results = rs
	qr.LatencyMs = latency
	return qr
}
