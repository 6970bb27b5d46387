package rank

import (
	"dwr/internal/index"
)

// Phrase search (Section 5, Communication): matching "terms appearing
// consecutively" requires within-document positions. In a
// document-partitioned system positions never leave a server; in a
// pipelined term-partitioned system the candidate positions travel with
// the accumulator, which is the communication blow-up the paper warns
// about ("the position information needs to be compressed").

// PhraseStep advances a phrase match by the term at phrase position
// slot: it decodes term's positional list, shifts every position back by
// slot, and returns the candidate phrase starts (ext doc -> sorted
// starts) that survive — all of them when starts is nil (the first term
// processed), else their intersection with starts. A term ix does not
// hold leaves no candidates. The intersection ∩ᵢ (positions(termᵢ) − i)
// is commutative, which is what lets a pipelined engine process terms in
// server order rather than phrase order. es accounts the list; only the
// positions of postings that survive are decoded.
func PhraseStep(ix *index.Index, term string, slot int, starts map[int][]int32, es *EvalStats) map[int][]int32 {
	it := ix.PostingsWithPositions(term)
	if it == nil {
		return map[int][]int32{}
	}
	es.ListsAccessed++
	es.BytesRead += int64(ix.PostingBytes(term))
	cur := make(map[int][]int32)
	for it.Next() {
		es.PostingsDecoded++
		ext := ix.ExtID(it.Doc())
		if starts != nil {
			if _, ok := starts[ext]; !ok {
				continue // doc already eliminated
			}
		}
		poss := it.Positions()
		adj := make([]int32, 0, len(poss))
		for _, pos := range poss {
			if s := pos - int32(slot); s >= 0 {
				adj = append(adj, s)
			}
		}
		if len(adj) > 0 {
			cur[ext] = adj
		}
	}
	if starts == nil {
		return cur
	}
	return intersectStarts(starts, cur)
}

// phraseMatches returns, for every document containing the terms as a
// consecutive phrase, the phrase-start positions; es accounts the lists.
func phraseMatches(ix *index.Index, terms []string, es *EvalStats) map[int][]int32 {
	var starts map[int][]int32
	for i, t := range terms {
		if starts = PhraseStep(ix, t, i, starts, es); len(starts) == 0 {
			break
		}
	}
	return starts
}

// intersectStarts keeps, per document, the start positions present in
// both maps (both sides sorted ascending, as positions are).
func intersectStarts(a, b map[int][]int32) map[int][]int32 {
	out := make(map[int][]int32)
	for doc, as := range a {
		bs, ok := b[doc]
		if !ok {
			continue
		}
		var merged []int32
		i, j := 0, 0
		for i < len(as) && j < len(bs) {
			switch {
			case as[i] == bs[j]:
				merged = append(merged, as[i])
				i++
				j++
			case as[i] < bs[j]:
				i++
			default:
				j++
			}
		}
		if len(merged) > 0 {
			out[doc] = merged
		}
	}
	return out
}

// EvaluatePhrase ranks documents containing the exact phrase. The phrase
// is scored as a pseudo-term: tf = number of phrase occurrences, idf =
// the rarest constituent term's idf (a standard surrogate, exact enough
// for cross-engine comparison because every engine uses the same rule).
func EvaluatePhrase(ix *index.Index, s *Scorer, terms []string, k int) ([]Result, EvalStats) {
	return evaluateView([]*index.Index{ix}, nil, s, terms, k, true, PruneNone, 0)
}

// phrase is EvaluatePhrase's body over one segment of a view, offering
// into tk. Positions never leave the segment.
func (sc *evalScratch) phrase(ix *index.Index, s *Scorer, terms []string, tk *topK, es *EvalStats) {
	starts := phraseMatches(ix, terms, es)
	if len(starts) == 0 {
		return
	}
	idf := phraseIDF(s, terms)
	norms := s.normsFor(ix)
	for ext, ss := range starts {
		doc := ix.InternalID(ext)
		if doc < 0 {
			continue
		}
		score := s.termNorm(int32(len(ss)), s.docNorm(norms, ix, doc), idf)
		tk.offer(Result{Doc: ext, Score: score})
	}
}

// phraseIDF returns the idf of the phrase's rarest constituent.
func phraseIDF(s *Scorer, terms []string) float64 {
	best := 0.0
	for _, t := range terms {
		if idf := s.IDF(t); idf > best {
			best = idf
		}
	}
	return best
}

// EncodedPositionsSize returns the byte size of delta+varint encoding
// the (sorted) position list — the compressed wire format the paper
// suggests for shipped positions. Raw size is 4 bytes per position.
func EncodedPositionsSize(positions []int32) int {
	size := 0
	var prev int32
	for _, p := range positions {
		size += uvarintLen(uint64(p - prev))
		prev = p
	}
	return size
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
