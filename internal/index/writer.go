package index

// SegmentWriter turns a bounded stream of documents into immutable
// segments applied to a SegmentStore — the ingestion half of the
// streaming crawl→index→serve pipeline. Documents accumulate in an
// in-memory builder and are sealed into an immutable segment every
// SegDocs documents (or on Cut/Build); sealed segments become
// searchable through the store's manifest, and the store's merge policy
// compacts them inline or in the background. Documents still in the
// unsealed buffer are NOT searchable — the gap between fetch and seal
// is exactly the freshness lag dwrbench -run fresh measures.
//
// A SegmentWriter is a single-goroutine producer; concurrent searches
// go through the store's Manifest.
type SegmentWriter struct {
	store   *SegmentStore
	segDocs int
	buf     *MemBuilder
	added   int
	sealed  int
}

// NewSegmentWriter creates a writer sealing a segment into store every
// segDocs documents (<= 0 defaults to 512).
func NewSegmentWriter(store *SegmentStore, segDocs int) *SegmentWriter {
	if segDocs <= 0 {
		segDocs = 512
	}
	return &SegmentWriter{store: store, segDocs: segDocs, buf: NewBuilder(store.opts)}
}

// AddDocument buffers one tokenized document, sealing a segment when
// the buffer reaches the writer's segment size. Documents already
// resident in the store (tombstoned or not) are rejected: updates are
// modelled as delete + add under a fresh ID, as everywhere in the
// immutable-segment design.
func (w *SegmentWriter) AddDocument(ext int, terms []string) error {
	if err := w.store.Manifest().admit(ext); err != nil {
		return err
	}
	if err := w.buf.AddDocument(ext, terms); err != nil {
		return err
	}
	w.added++
	if w.buf.NumDocs() >= w.segDocs {
		return w.Cut()
	}
	return nil
}

// NumDocs returns how many documents have been added (sealed or not).
func (w *SegmentWriter) NumDocs() int { return w.added }

// Buffered returns how many added documents are not yet sealed (and so
// not yet searchable).
func (w *SegmentWriter) Buffered() int { return w.buf.NumDocs() }

// SegmentsSealed returns how many segments this writer has sealed into
// the store.
func (w *SegmentWriter) SegmentsSealed() int { return w.sealed }

// Cut seals the current buffer into the store as one segment, making
// its documents searchable. A no-op on an empty buffer.
func (w *SegmentWriter) Cut() error {
	if w.buf.NumDocs() == 0 {
		return nil
	}
	seg := w.buf.BuildParallel(1)
	w.buf = NewBuilder(w.store.opts)
	if err := w.store.Apply(seg); err != nil {
		return err
	}
	w.sealed++
	return nil
}

// Build implements Builder: it seals the remaining buffer and compacts
// the store into one immutable index — the end-of-stream handoff that
// makes the streaming path interchangeable with the offline builders.
func (w *SegmentWriter) Build() (*Index, error) {
	if err := w.Cut(); err != nil {
		return nil, err
	}
	return w.store.Compact()
}
