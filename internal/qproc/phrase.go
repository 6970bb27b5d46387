package qproc

import (
	"dwr/internal/conc"
	"dwr/internal/rank"
)

// Phrase evaluation across the two architectures (§5, Communication).
// Document-partitioned: each partition intersects positions locally and
// ships only its top-k — positions never cross the network. Pipelined
// term-partitioned: the candidate phrase-start positions travel with the
// accumulator between term servers, and their encoding (raw vs
// delta+varint compressed) decides the communication bill.

// QueryPhrase evaluates an exact-phrase query on the document-partitioned
// engine. Positions stay inside each partition; evaluation fans out over
// the broker's worker pool like Query, and every partition call passes
// through the same fault policy and outcome tally.
func (e *DocEngine) QueryPhrase(terms []string, k int) QueryResult {
	if k <= 0 {
		k = 10
	}
	return e.answer("", 0, func(tick int64) QueryResult {
		qr := QueryResult{Rounds: 1}
		scorer := rank.NewScorer(rank.FromGlobal(e.global))
		targets := make([]int, len(e.parts))
		for p := range targets {
			targets[p] = p
		}
		targets = e.live(targets)
		down := len(e.parts) - len(targets)
		qr.ServersContacted = len(targets)

		evals := make([]partEval, len(targets))
		conc.Do(len(targets), e.workers, func(i int) {
			evals[i].rs, evals[i].es = rank.EvaluatePhrase(e.parts[targets[i]], scorer, terms, k)
		})
		merger := rank.NewTopKMerger(k)
		var slowest float64
		lost := 0
		e.mu.Lock()
		for i, p := range targets {
			ms, ok := e.call(tick, p, e.cost.ServiceMs(evals[i].es.PostingsDecoded), 0, &qr)
			if ms > slowest {
				slowest = ms
			}
			if !ok {
				lost++
				continue
			}
			qr.addEval(evals[i].es, len(evals[i].rs))
			merger.Add(evals[i].rs)
		}
		e.mu.Unlock()
		qr.Results = merger.Results()
		qr.LatencyMs = slowest + e.lanMs
		e.degrade(&qr, lost+down, len(e.parts), "partitions")
		return qr
	})
}

// QueryPhrase evaluates an exact-phrase query through the term-
// partitioned pipeline. compressPositions selects the wire encoding of
// the travelling candidate positions: raw 4-byte integers, or the
// delta+varint encoding the paper recommends.
//
// Unlike Query, the phrase pipeline stays serial per query: each hop
// prunes its posting scan by the candidate set the previous hop shipped
// and aborts the route once the intersection empties, so hop h's work
// genuinely depends on hop h-1's output. Only the accounting is
// lock-guarded for concurrent callers.
func (e *TermEngine) QueryPhrase(terms []string, k int, compressPositions bool) QueryResult {
	if k <= 0 {
		k = 10
	}
	return e.answer("", 0, func(tick int64) QueryResult {
		return e.evaluatePhrase(tick, terms, k, compressPositions)
	})
}

func (e *TermEngine) evaluatePhrase(tick int64, terms []string, k int, compressPositions bool) QueryResult {
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
	qr.ServersContacted = len(route)
	qr.Rounds = len(route)

	// Candidate phrase-start positions travel server to server. The
	// intersection ∩ᵢ(positions(termᵢ)−i) is commutative, so slots are
	// processed grouped by owning server, in route order.
	var starts map[int][]int32
	latency := 0.0
	lost := 0
	for _, s := range route {
		ix := e.servers[s]
		prev := starts
		var es rank.EvalStats
		for slot, t := range terms {
			if e.tp.Assign[t] != s {
				continue
			}
			it := ix.PostingsWithPositions(t)
			if it == nil {
				starts = map[int][]int32{}
				break
			}
			es.ListsAccessed++
			es.BytesRead += int64(ix.PostingBytes(t))
			cur := make(map[int][]int32)
			for it.Next() {
				es.PostingsDecoded++
				p := it.Posting()
				ext := ix.ExtID(p.Doc)
				if starts != nil {
					if _, ok := starts[ext]; !ok {
						continue
					}
				}
				adj := make([]int32, 0, len(p.Pos))
				for _, pos := range p.Pos {
					if sp := pos - int32(slot); sp >= 0 {
						adj = append(adj, sp)
					}
				}
				if len(adj) > 0 {
					cur[ext] = adj
				}
			}
			if starts == nil {
				starts = cur
			} else {
				starts = rank.IntersectStarts(starts, cur)
			}
			if len(starts) == 0 {
				break
			}
		}
		service := e.cost.ServiceMs(es.PostingsDecoded) + e.cost.AccumulatorMs(len(starts))
		e.mu.Lock()
		ms, ok := e.call(tick, s, service, 0, &qr)
		e.mu.Unlock()
		latency += ms
		if !ok {
			// Lost hop: the pipeline routes around the server, so the
			// candidates travel on without its terms' constraint.
			starts = prev
			lost++
			continue
		}
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
	latency += e.lanMs

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
	e.degrade(&qr, lost, len(route), "pipeline hops")
	return qr
}
