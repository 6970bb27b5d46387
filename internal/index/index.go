package index

import (
	"sort"
)

// Index is an immutable inverted index over a set of documents. Build
// one with a Builder (or one of the distributed build strategies) and
// query it through Postings, DF, CF, and the document accessors.
//
// Reader-safety invariant: once a builder returns an Index, no method
// mutates it — there is no lazily-populated cache, no memoized
// statistic, no internal cursor. Every accessor is therefore safe for
// any number of concurrent readers with no locking, which is what lets
// the scatter-gather broker of internal/qproc evaluate partitions on
// parallel goroutines. (Per-iteration state lives in the Iterator
// values handed out by Postings; each call returns a fresh one.)
// Anything that would break this invariant must go through a new type
// (see SegmentWriter: a mutable collection is a sequence of immutable
// indexes behind a swapped Manifest).
type Index struct {
	opts     Options
	terms    map[string]int
	termList []termEntry
	docs     []docEntry
	docByExt map[int]int
	totalLen int64
	front    frontiers // every multi-block list's block frontiers
}

type termEntry struct {
	term string
	pl   postingList
}

type docEntry struct {
	ext    int // external document ID (e.g. simweb page ID)
	length int // tokens in the document
}

// NumDocs returns the number of indexed documents.
func (ix *Index) NumDocs() int { return len(ix.docs) }

// NumTerms returns the number of distinct terms.
func (ix *Index) NumTerms() int { return len(ix.termList) }

// TotalLen returns the total token count across documents.
func (ix *Index) TotalLen() int64 { return ix.totalLen }

// AvgDocLen returns the mean document length, or 0 for an empty index.
func (ix *Index) AvgDocLen() float64 {
	if len(ix.docs) == 0 {
		return 0
	}
	return float64(ix.totalLen) / float64(len(ix.docs))
}

// DocLen returns the token count of internal document doc.
func (ix *Index) DocLen(doc int32) int { return ix.docs[doc].length }

// ExtID maps an internal document ordinal to its external ID.
func (ix *Index) ExtID(doc int32) int { return ix.docs[doc].ext }

// InternalID maps an external document ID to the internal ordinal, or
// -1 if the document is not in this index.
func (ix *Index) InternalID(ext int) int32 {
	if i, ok := ix.docByExt[ext]; ok {
		return int32(i)
	}
	return -1
}

// DF returns the document frequency of term in this index (0 if absent).
func (ix *Index) DF(term string) int {
	if i, ok := ix.terms[term]; ok {
		return int(ix.termList[i].pl.count)
	}
	return 0
}

// CF returns the collection frequency (total occurrences) of term.
func (ix *Index) CF(term string) int64 {
	if i, ok := ix.terms[term]; ok {
		return ix.termList[i].pl.cf
	}
	return 0
}

// Postings returns an iterator over term's posting list (without
// materializing positions), or nil if the term is absent.
func (ix *Index) Postings(term string) *Iterator {
	return ix.postings(term, false)
}

// PostingsWithPositions returns an iterator that materializes positions,
// for phrase and proximity matching. The paper notes pipelined term-
// partitioned systems pay heavily to ship these (Section 5).
func (ix *Index) PostingsWithPositions(term string) *Iterator {
	return ix.postings(term, true)
}

func (ix *Index) postings(term string, withPos bool) *Iterator {
	i, ok := ix.terms[term]
	if !ok {
		return nil
	}
	it := newIterator(&ix.termList[i].pl, ix.opts.blockSize(), withPos)
	it.fr = &ix.front
	return it
}

// PostingsInto is Postings with caller-owned iterator storage: it
// re-initializes *it over term's posting list (without positions) and
// returns it, or returns nil — leaving *it untouched — when the term is
// absent. Evaluation loops that score many lists per query use this
// with pooled Iterator values to keep the hot path allocation-free.
func (ix *Index) PostingsInto(it *Iterator, term string) *Iterator {
	i, ok := ix.terms[term]
	if !ok {
		return nil
	}
	it.reset(&ix.termList[i].pl, ix.opts.blockSize(), false)
	it.fr = &ix.front
	return it
}

// TermScoreMeta is the resident per-term score-bound summary the
// evaluator orders its lists by and a broker prunes partitions with: the
// list's largest tf and shortest document, from which rank bounds the
// list's BM25 contribution. Both live in the dictionary — reading them
// touches no posting bytes — and both are derived from the postings,
// never read from a file.
type TermScoreMeta struct {
	MaxTF  int32 // largest tf in the list
	MinLen int32 // shortest document in the list (0 = unknown; bound stays safe)
}

// TermScoreMeta returns term's score-bound summary; ok is false when the
// term is absent from this partition.
func (ix *Index) TermScoreMeta(term string) (TermScoreMeta, bool) {
	i, ok := ix.terms[term]
	if !ok {
		return TermScoreMeta{}, false
	}
	return ix.termList[i].pl.meta, true
}

// PostingBytes returns the encoded size in bytes of term's posting list,
// the disk/network cost unit used by the Webber experiments (C6).
func (ix *Index) PostingBytes(term string) int {
	if i, ok := ix.terms[term]; ok {
		return len(ix.termList[i].pl.data)
	}
	return 0
}

// SizeBytes returns the total encoded posting data size.
func (ix *Index) SizeBytes() int64 {
	var n int64
	for i := range ix.termList {
		n += int64(len(ix.termList[i].pl.data))
	}
	return n
}

// Terms returns the lexicon in sorted order.
func (ix *Index) Terms() []string {
	out := make([]string, len(ix.termList))
	for i := range ix.termList {
		out[i] = ix.termList[i].term
	}
	sort.Strings(out)
	return out
}

// Stats are the per-partition statistics exchanged by the two-round
// global-statistics protocol of Section 4 (External factors): enough to
// reconstruct global DF and collection size at the broker.
type Stats struct {
	NumDocs  int
	TotalLen int64
	DF       map[string]int
}

// LocalStats extracts the statistics of this index restricted to the
// given terms (nil = all terms).
func (ix *Index) LocalStats(terms []string) Stats {
	st := Stats{
		NumDocs:  ix.NumDocs(),
		TotalLen: ix.totalLen,
		DF:       make(map[string]int),
	}
	if terms == nil {
		for i := range ix.termList {
			e := &ix.termList[i]
			st.DF[e.term] = int(e.pl.count)
		}
		return st
	}
	for _, t := range terms {
		if df := ix.DF(t); df > 0 {
			st.DF[t] = df
		}
	}
	return st
}

// MergeStats aggregates per-partition statistics into global statistics,
// the broker-side half of the two-round protocol.
func MergeStats(parts ...Stats) Stats {
	g := Stats{DF: make(map[string]int)}
	for _, p := range parts {
		g.NumDocs += p.NumDocs
		g.TotalLen += p.TotalLen
		for t, df := range p.DF {
			g.DF[t] += df
		}
	}
	return g
}
