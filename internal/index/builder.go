package index

import (
	"fmt"
	"sort"

	"dwr/internal/conc"
)

// Builder is the uniform index-construction surface: every strategy in
// the package — the in-memory reference inverter (MemBuilder), the
// sort-based builder (SortBuilder), single-pass spill-run indexing
// (SPIMIBuilder), and the online-maintained segment pipeline
// (SegmentWriter) — feeds tokenized documents in and hands one
// immutable Index back. Callers that only construct (cmd/*, examples,
// fixtures) program against this interface and swap strategies without
// touching the call sites.
type Builder interface {
	// AddDocument indexes one tokenized document under external ID ext.
	// Duplicate IDs are rejected with an error: the indexing pipeline
	// deduplicates upstream, so a duplicate here is a bug.
	AddDocument(ext int, terms []string) error
	// NumDocs returns how many documents have been added so far.
	NumDocs() int
	// Build finalizes construction and returns the immutable index.
	Build() (*Index, error)
}

// Interface conformance, checked at compile time.
var (
	_ Builder = (*MemBuilder)(nil)
	_ Builder = (*SortBuilder)(nil)
	_ Builder = (*SPIMIBuilder)(nil)
	_ Builder = (*SegmentWriter)(nil)
)

// MustBuild drives b to completion and panics on error — the
// construction helper for fixtures, examples, and tests, where a build
// error is a bug in the caller rather than a runtime condition.
func MustBuild(b Builder) *Index {
	ix, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("index: build failed: %v", err))
	}
	return ix
}

// docTable is the document half of an index under construction: one
// entry per document in ordinal order, the external-ID lookup, and the
// running token total. Every construction strategy and the merge fill
// one through add and freeze it with index.
type docTable struct {
	docs  []docEntry
	byExt map[int]int
	total int64
}

// add appends a document of the given token length and returns its
// ordinal, rejecting an external ID the table already holds.
func (t *docTable) add(ext, length int) (int32, error) {
	if _, dup := t.byExt[ext]; dup {
		return 0, fmt.Errorf("index: duplicate document %d", ext)
	}
	if t.byExt == nil {
		t.byExt = make(map[int]int)
	}
	doc := len(t.docs)
	t.byExt[ext] = doc
	t.docs = append(t.docs, docEntry{ext: ext, length: length})
	t.total += int64(length)
	return int32(doc), nil
}

// NumDocs returns how many documents have been added.
func (t *docTable) NumDocs() int { return len(t.docs) }

// index freezes the table into an Index with an empty lexicon, plus the
// document statistics its posting lists are encoded against. The table
// must not be added to afterwards.
func (t *docTable) index(opts Options) (*Index, encodeStats) {
	ix := &Index{
		opts:     opts,
		terms:    make(map[string]int),
		docs:     t.docs,
		docByExt: t.byExt,
		totalLen: t.total,
	}
	return ix, lengthsOf(t.docs, t.total)
}

// addTerm appends the next term of the lexicon (callers add terms in
// sorted order).
func (ix *Index) addTerm(term string, pl postingList) {
	ix.terms[term] = len(ix.termList)
	ix.termList = append(ix.termList, termEntry{term: term, pl: pl})
}

// invert groups the token positions of document doc per term and emits
// one posting per distinct term for which keep returns true (nil keeps
// every term), in no particular term order. Positions index the full
// token sequence, filtered or not.
func invert(doc int32, terms []string, positions bool, keep func(string) bool, emit func(term string, p Posting)) {
	occ := make(map[string][]int32)
	for i, t := range terms {
		if keep == nil || keep(t) {
			occ[t] = append(occ[t], int32(i))
		}
	}
	for t, poss := range occ {
		p := Posting{Doc: doc, TF: int32(len(poss))}
		if positions {
			p.Pos = poss
		}
		emit(t, p)
	}
}

// MemBuilder constructs an Index incrementally in memory: the vanilla
// inverter that keeps a growing posting buffer per term. It is the
// reference implementation the other construction strategies are checked
// against.
type MemBuilder struct {
	docTable
	opts    Options
	posting map[string][]Posting
}

// NewBuilder creates an in-memory builder with the given layout options.
func NewBuilder(opts Options) *MemBuilder {
	return &MemBuilder{opts: opts, posting: make(map[string][]Posting)}
}

// AddDocument indexes one tokenized document under external ID ext,
// rejecting duplicate IDs.
func (b *MemBuilder) AddDocument(ext int, terms []string) error {
	return b.AddDocumentFiltered(ext, terms, nil)
}

// AddDocumentFiltered indexes only the terms of the document for which
// keep returns true, while recording the document's full length and the
// original token positions. Term-partitioned servers use this to hold
// complete postings for their term range with correct BM25 length
// normalization.
func (b *MemBuilder) AddDocumentFiltered(ext int, terms []string, keep func(string) bool) error {
	doc, err := b.add(ext, len(terms))
	if err != nil {
		return err
	}
	invert(doc, terms, b.opts.StorePositions, keep, func(t string, p Posting) {
		b.posting[t] = append(b.posting[t], p)
	})
	return nil
}

// Build freezes the builder into an immutable Index. The builder must
// not be used afterwards. The error is always nil (pure in-memory
// construction cannot fail); it exists to satisfy Builder.
func (b *MemBuilder) Build() (*Index, error) {
	return b.BuildParallel(1), nil
}

// BuildParallel is Build with the per-term posting-list encoding fanned
// out over up to workers goroutines (0 = GOMAXPROCS). Each worker owns
// a disjoint set of lexicon slots, so the resulting index is identical
// to Build's at any worker count.
func (b *MemBuilder) BuildParallel(workers int) *Index {
	ix, st := b.index(b.opts)
	terms := make([]string, 0, len(b.posting))
	for t := range b.posting {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	ix.terms = make(map[string]int, len(terms))
	ix.termList = make([]termEntry, len(terms))
	for i, t := range terms {
		ix.terms[t] = i
	}
	conc.Do(len(terms), workers, func(i int) {
		t := terms[i]
		ix.termList[i] = termEntry{term: t, pl: encodePostings(b.posting[t], b.opts, st)}
	})
	return ix
}

// BuildAll freezes a set of builders concurrently — the construction
// path of the partitioned query engines, where K partition indexes are
// independent and a serial loop would leave all but one core idle.
// workers bounds the builder-level fan-out (0 = GOMAXPROCS); each
// builder additionally parallelizes its own posting encoding, which
// matters when K is smaller than the machine.
func BuildAll(builders []*MemBuilder, workers int) []*Index {
	out := make([]*Index, len(builders))
	conc.Do(len(builders), workers, func(i int) {
		out[i] = builders[i].BuildParallel(workers)
	})
	return out
}

// SortBuilder implements classic sort-based index construction
// (Witten, Moffat & Bell, "Managing Gigabytes"; paper §4): it records
// one (term, doc, position) triple per occurrence, sorts the triples at
// the end, and emits postings from the sorted run.
type SortBuilder struct {
	docTable
	opts Options
	recs []occRecord
}

type occRecord struct {
	term string
	doc  int32
	pos  int32
}

// NewSortBuilder creates a sort-based builder.
func NewSortBuilder(opts Options) *SortBuilder {
	return &SortBuilder{opts: opts}
}

// AddDocument records the occurrence triples of one document, rejecting
// duplicate IDs.
func (b *SortBuilder) AddDocument(ext int, terms []string) error {
	doc, err := b.add(ext, len(terms))
	if err != nil {
		return err
	}
	for i, t := range terms {
		b.recs = append(b.recs, occRecord{term: t, doc: doc, pos: int32(i)})
	}
	return nil
}

// Build sorts the occurrence records and assembles the index. The error
// is always nil; it exists to satisfy Builder.
func (b *SortBuilder) Build() (*Index, error) {
	sort.Slice(b.recs, func(i, j int) bool {
		a, c := b.recs[i], b.recs[j]
		if a.term != c.term {
			return a.term < c.term
		}
		if a.doc != c.doc {
			return a.doc < c.doc
		}
		return a.pos < c.pos
	})
	ix, st := b.index(b.opts)
	i := 0
	for i < len(b.recs) {
		term := b.recs[i].term
		var ps []Posting
		for i < len(b.recs) && b.recs[i].term == term {
			doc := b.recs[i].doc
			var poss []int32
			for i < len(b.recs) && b.recs[i].term == term && b.recs[i].doc == doc {
				poss = append(poss, b.recs[i].pos)
				i++
			}
			p := Posting{Doc: doc, TF: int32(len(poss))}
			if b.opts.StorePositions {
				p.Pos = poss
			}
			ps = append(ps, p)
		}
		ix.addTerm(term, encodePostings(ps, b.opts, st))
	}
	return ix, nil
}

// Equal reports whether two indexes contain the same documents, lexicon,
// and postings (including positions when both store them). It is the
// cross-checking oracle for the different construction strategies.
func Equal(a, b *Index) bool {
	if a.NumDocs() != b.NumDocs() || a.NumTerms() != b.NumTerms() || a.totalLen != b.totalLen {
		return false
	}
	for i := range a.docs {
		if a.docs[i] != b.docs[i] {
			return false
		}
	}
	for i := range a.termList {
		ta := &a.termList[i]
		tb, ok := b.terms[ta.term]
		if !ok {
			return false
		}
		pa := ta.pl.decodeAll(a.opts)
		pb := b.termList[tb].pl.decodeAll(b.opts)
		if len(pa) != len(pb) {
			return false
		}
		for j := range pa {
			if pa[j].Doc != pb[j].Doc || pa[j].TF != pb[j].TF {
				return false
			}
			if a.opts.StorePositions && b.opts.StorePositions {
				for k := range pa[j].Pos {
					if pa[j].Pos[k] != pb[j].Pos[k] {
						return false
					}
				}
			}
		}
	}
	return true
}
