package index

import (
	"bufio"
	"container/heap"
	"encoding/gob"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// SPIMIBuilder implements single-pass in-memory indexing with spill runs
// (Lester, Moffat & Zobel; paper §4: "single-pass algorithms are
// efficient in several scenarios where indexing of a large amount of
// data is performed with limited resources"). Postings accumulate in
// memory until a budget is exceeded, are flushed to a sorted on-disk
// run, and the runs are k-way merged into the final index.
type SPIMIBuilder struct {
	docTable
	opts      Options
	memBudget int
	dir       string
	cur       postingBuffer // the postings since the last spill
	curBytes  int
	runs      []string
	spills    int
}

// runEntry is the on-disk record of one term's postings within a run.
type runEntry struct {
	Term     string
	Postings []Posting
}

// NewSPIMIBuilder creates a single-pass builder that spills to temporary
// files under dir (or the OS temp dir when dir is empty) whenever the
// in-memory posting buffer exceeds memBudget bytes (approximate).
func NewSPIMIBuilder(opts Options, memBudget int, dir string) (*SPIMIBuilder, error) {
	if memBudget <= 0 {
		memBudget = 1 << 20
	}
	tmp, err := os.MkdirTemp(dir, "spimi-")
	if err != nil {
		return nil, fmt.Errorf("index: creating spill dir: %w", err)
	}
	return &SPIMIBuilder{
		opts:      opts,
		memBudget: memBudget,
		dir:       tmp,
	}, nil
}

// AddDocument indexes one tokenized document, spilling to disk if the
// memory budget is exceeded.
func (b *SPIMIBuilder) AddDocument(ext int, terms []string) error {
	doc, err := b.add(ext, len(terms))
	if err != nil {
		return err
	}
	b.curBytes += b.cur.add(doc, terms, nil)
	if b.curBytes >= b.memBudget {
		return b.spill()
	}
	return nil
}

// Spills returns how many runs were written to disk so far.
func (b *SPIMIBuilder) Spills() int { return b.spills }

// spill writes the in-memory buffer as one sorted run file.
func (b *SPIMIBuilder) spill() error {
	if len(b.cur.terms) == 0 {
		return nil
	}
	path := filepath.Join(b.dir, fmt.Sprintf("run-%04d.gob", b.spills))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("index: creating run file: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := gob.NewEncoder(w)
	for _, id := range b.cur.sorted() {
		if err := enc.Encode(runEntry{Term: b.cur.terms[id], Postings: b.cur.lists[id]}); err != nil {
			f.Close()
			return fmt.Errorf("index: writing run: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("index: flushing run: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("index: closing run: %w", err)
	}
	b.runs = append(b.runs, path)
	b.spills++
	b.cur = postingBuffer{}
	b.curBytes = 0
	return nil
}

// runReader streams runEntries from one spill file.
type runReader struct {
	dec  *gob.Decoder
	cur  runEntry
	done bool
	seq  int // run ordinal; later runs hold later documents
}

func (r *runReader) next() error {
	var e runEntry
	if err := r.dec.Decode(&e); err != nil {
		if err == io.EOF {
			r.done = true
			return nil
		}
		return err
	}
	r.cur = e
	return nil
}

// readerHeap orders run readers by (current term, run ordinal); the run
// ordinal tiebreak keeps postings in document order because documents
// only ever move forward across spills.
type readerHeap []*runReader

func (h readerHeap) Len() int { return len(h) }
func (h readerHeap) Less(i, j int) bool {
	if h[i].cur.Term != h[j].cur.Term {
		return h[i].cur.Term < h[j].cur.Term
	}
	return h[i].seq < h[j].seq
}
func (h readerHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *readerHeap) Push(x interface{}) { *h = append(*h, x.(*runReader)) }
func (h *readerHeap) Pop() interface{} {
	old := *h
	n := len(old)
	v := old[n-1]
	*h = old[:n-1]
	return v
}

// Build spills any remaining buffer, k-way merges the runs, deletes the
// spill directory, and returns the final index.
func (b *SPIMIBuilder) Build() (*Index, error) {
	if err := b.spill(); err != nil {
		return nil, err
	}
	defer os.RemoveAll(b.dir)

	ix := b.index(b.opts)

	var h readerHeap
	for seq, path := range b.runs {
		f, err := os.Open(path)
		if err != nil {
			return nil, fmt.Errorf("index: opening run: %w", err)
		}
		defer f.Close()
		r := &runReader{dec: gob.NewDecoder(bufio.NewReader(f)), seq: seq}
		if err := r.next(); err != nil {
			return nil, fmt.Errorf("index: reading run: %w", err)
		}
		if !r.done {
			h = append(h, r)
		}
	}
	heap.Init(&h)

	var curTerm string
	var curPostings []Posting
	flushTerm := func() { // every run entry holds at least one posting
		if len(curPostings) > 0 {
			ix.addTerm(curTerm, encodePostings(curPostings, b.opts, ix.docs))
			curPostings = nil
		}
	}
	for h.Len() > 0 {
		r := h[0]
		if r.cur.Term != curTerm {
			flushTerm()
			curTerm = r.cur.Term
		}
		curPostings = append(curPostings, r.cur.Postings...)
		if err := r.next(); err != nil {
			return nil, fmt.Errorf("index: reading run: %w", err)
		}
		if r.done {
			heap.Pop(&h)
		} else {
			heap.Fix(&h, 0)
		}
	}
	flushTerm()
	ix.deriveFrontiers()
	return ix, nil
}
