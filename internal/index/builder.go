package index

import (
	"fmt"
	"slices"
	"sort"
	"strings"

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

// index freezes the table into an Index with an empty lexicon; its
// posting lists are encoded against ix.docs. The table must not be added
// to afterwards.
func (t *docTable) index(opts Options) *Index {
	return &Index{
		opts:     opts,
		terms:    make(map[string]int),
		docs:     t.docs,
		docByExt: t.byExt,
		totalLen: t.total,
	}
}

// addTerm appends the next term of the lexicon (callers add terms in
// sorted order).
func (ix *Index) addTerm(term string, pl postingList) {
	ix.terms[term] = len(ix.termList)
	ix.termList = append(ix.termList, termEntry{term: term, pl: pl})
}

// postingBuffer is the one in-memory inverter: MemBuilder's postings,
// each SPIMIBuilder run and each BuildPipeline stage live in one (and
// so does every SegmentWriter seal, which goes through Build). A term is
// looked up once per occurrence and named by a dense ID from then on;
// its postings grow in one slice per ID, in document order; and each
// posting's positions are carved from a chunked arena. Adding a document
// whose terms the dictionary already holds allocates nothing but the
// growth of posting slices.
type postingBuffer struct {
	ids     map[string]int32 // term → ID
	terms   []string         // by ID
	lists   [][]Posting      // by ID
	tf      []int32          // by ID: the current document's count, zero between documents
	touched []int32          // the current document's IDs, in first-occurrence order
	tok     []int32          // the current document's token IDs, -1 where keep refused
	arena   []int32          // the uncarved rest of the current position chunk
}

// arenaChunk is the position arena's chunk, in positions; a document
// with more kept tokens gets a chunk of its own size.
const arenaChunk = 64 << 10

// add inverts document doc: one posting per distinct term of terms for
// which keep returns true (nil keeps every term), appended to that
// term's list. Positions index the full token sequence, filtered or not.
// It returns what the postings weigh against SPIMIBuilder's budget: 12
// bytes and the term's length per posting, 4 bytes per position.
func (b *postingBuffer) add(doc int32, terms []string, keep func(string) bool) (charge int) {
	if b.ids == nil {
		b.ids = make(map[string]int32)
	}
	tok, touched := b.tok[:0], b.touched[:0]
	kept := 0
	for _, t := range terms {
		if keep != nil && !keep(t) {
			tok = append(tok, -1)
			continue
		}
		id, ok := b.ids[t]
		if !ok {
			id = int32(len(b.terms))
			b.ids[t] = id
			b.terms = append(b.terms, t)
			b.lists = append(b.lists, nil)
			b.tf = append(b.tf, 0)
		}
		if b.tf[id] == 0 {
			touched = append(touched, id)
		}
		b.tf[id]++
		tok = append(tok, id)
		kept++
	}
	if len(b.arena) < kept {
		b.arena = make([]int32, max(arenaChunk, kept))
	}
	// Each posting's Pos is an empty slice capped at its TF, so the fill
	// below appends in place and never into a neighbour.
	for _, id := range touched {
		n := b.tf[id]
		b.lists[id] = append(b.lists[id], Posting{Doc: doc, TF: n, Pos: b.arena[:0:n]})
		b.arena = b.arena[n:]
		b.tf[id] = 0
		charge += 12 + len(b.terms[id]) + 4*int(n)
	}
	for i, id := range tok {
		if id >= 0 {
			p := &b.lists[id][len(b.lists[id])-1]
			p.Pos = append(p.Pos, int32(i))
		}
	}
	b.tok, b.touched = tok, touched
	return charge
}

// sorted returns the buffer's term IDs in term order.
func (b *postingBuffer) sorted() []int32 {
	ids := make([]int32, len(b.terms))
	for i := range ids {
		ids[i] = int32(i)
	}
	slices.SortFunc(ids, func(x, y int32) int { return strings.Compare(b.terms[x], b.terms[y]) })
	return ids
}

// appendTo adds the buffer's terms to ix's lexicon in term order, after
// the terms ix holds (which must sort before them), encoding the lists
// against ix's document table over up to workers goroutines (0 =
// GOMAXPROCS). Each worker owns disjoint lexicon slots, so the index is
// the same at any worker count.
func (b *postingBuffer) appendTo(ix *Index, workers int) {
	ids := b.sorted()
	if len(ix.terms) == 0 {
		ix.terms = make(map[string]int, len(ids))
	}
	base := len(ix.termList)
	ix.termList = slices.Grow(ix.termList, len(ids))[:base+len(ids)]
	for i, id := range ids {
		ix.terms[b.terms[id]] = base + i
	}
	conc.Do(len(ids), workers, func(i int) {
		id := ids[i]
		ix.termList[base+i] = termEntry{term: b.terms[id], pl: encodePostings(b.lists[id], ix.opts, ix.docs)}
	})
}

// MemBuilder constructs an Index incrementally in memory: the vanilla
// inverter over one posting buffer. It is the reference implementation
// the other construction strategies are checked against.
type MemBuilder struct {
	docTable
	opts Options
	buf  postingBuffer
}

// NewBuilder creates an in-memory builder with the given layout options.
func NewBuilder(opts Options) *MemBuilder {
	return &MemBuilder{opts: opts}
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
	b.buf.add(doc, terms, keep)
	return nil
}

// Build freezes the builder into an immutable Index. The builder must
// not be used afterwards. The error is always nil (pure in-memory
// construction cannot fail); it exists to satisfy Builder.
func (b *MemBuilder) Build() (*Index, error) {
	return b.BuildParallel(1), nil
}

// BuildParallel is Build with the per-term posting-list encoding fanned
// out over up to workers goroutines (0 = GOMAXPROCS); the index is
// identical to Build's at any worker count. The builder lets go of its
// posting buffer and must not be used afterwards.
func (b *MemBuilder) BuildParallel(workers int) *Index {
	ix := b.index(b.opts)
	b.buf.appendTo(ix, workers)
	b.buf = postingBuffer{}
	return ix
}

// Build indexes docs as one index, rejecting a repeated ID.
func Build(opts Options, docs []Doc) (*Index, error) {
	b := NewBuilder(opts)
	for _, d := range docs {
		if err := b.AddDocument(d.Ext, d.Terms); err != nil {
			return nil, err
		}
	}
	return b.BuildParallel(1), nil
}

// BuildAll builds k indexes side by side, as the partitioned query
// engines do: the K partition indexes are independent, and a serial
// loop would leave all but one core idle. fill(i, b) adds index i's
// documents to b, in the caller's order, and on an error returns it
// with the position (in that order) of the document that caused it;
// BuildAll returns the error of the least position, which is the one a
// serial loop over every fill would have met first. Each builder also
// fans its posting encoding out; both fan-outs are GOMAXPROCS wide.
func BuildAll(opts Options, k int, fill func(i int, b *MemBuilder) (int, error)) ([]*Index, error) {
	out := make([]*Index, k)
	errs := make([]error, k)
	at := make([]int, k)
	conc.Do(k, 0, func(i int) {
		b := NewBuilder(opts)
		if at[i], errs[i] = fill(i, b); errs[i] == nil {
			out[i] = b.BuildParallel(0)
		}
	})
	first := -1
	for i, err := range errs {
		if err != nil && (first < 0 || at[i] < at[first]) {
			first = i
		}
	}
	if first >= 0 {
		return nil, errs[first]
	}
	return out, nil
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
	ix := b.index(b.opts)
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
			ps = append(ps, Posting{Doc: doc, TF: int32(len(poss)), Pos: poss})
		}
		ix.addTerm(term, encodePostings(ps, b.opts, ix.docs))
	}
	return ix, nil
}

// Equal reports whether two indexes contain the same documents, lexicon,
// and postings, positions included. It is the cross-checking oracle for
// the different construction strategies.
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
		pa := ta.pl.decodeAll(a.opts.blockSize())
		pb := b.termList[tb].pl.decodeAll(b.opts.blockSize())
		if len(pa) != len(pb) {
			return false
		}
		for j := range pa {
			if pa[j].Doc != pb[j].Doc || pa[j].TF != pb[j].TF || !slices.Equal(pa[j].Pos, pb[j].Pos) {
				return false
			}
		}
	}
	return true
}
