package core

import (
	"errors"
	"fmt"

	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/qproc"
	"dwr/internal/textproc"
)

// Live is the continuous form of the pipeline: instead of indexing a
// finished crawl, pages stream into per-partition segment writers while
// Query answers over whatever the stores' manifests hold — crawling,
// indexing and serving at once. Ingest and Seal belong to one goroutine
// (segment writers are single-producer); queries read immutable
// manifest snapshots and never block on them.
type Live struct {
	Query   *qproc.LiveEngine
	stores  []*index.SegmentStore
	writers []*index.SegmentWriter
	terms   textproc.Terms // every ingested page is tokenized against it
}

// NewLive assembles partitions empty segment stores (merge radix 3), a
// writer over each that seals a segment every segDocs documents, and
// the live engine over the stores, built with opts. Merges run inline
// in the seal that sets them off, on the ingesting goroutine, so every
// manifest swap is a function of the ingest order alone.
func NewLive(partitions, segDocs int, opts ...qproc.Option) (*Live, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("core: a live engine needs at least one partition, got %d", partitions)
	}
	l := &Live{
		stores:  make([]*index.SegmentStore, partitions),
		writers: make([]*index.SegmentWriter, partitions),
	}
	for i := range l.stores {
		l.stores[i] = index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		l.writers[i] = index.NewSegmentWriter(l.stores[i], segDocs)
	}
	eng, err := qproc.NewLiveEngine(l.stores, opts...)
	if err != nil {
		return nil, err
	}
	l.Query = eng
	return l, nil
}

// Ingest parses a crawled page (PageDoc, against the one table of the
// terms ingested so far) and hands the document to the writer of
// partition PageID mod K. ok is false when nothing was added:
// the page has no indexable text, or it is a refetch of a page the
// partition already holds.
func (l *Live) Ingest(p *crawler.Page) (part int, ok bool) {
	d, ok := PageDoc(p, &l.terms)
	if !ok {
		return 0, false
	}
	part = d.Ext % len(l.writers)
	return part, l.writers[part].AddDocument(d.Ext, d.Terms) == nil
}

// Seal ends a burst of ingest: every writer's partial buffer becomes a
// searchable segment, merged as the policy asks.
func (l *Live) Seal() error {
	var err error
	for _, w := range l.writers {
		err = errors.Join(err, w.Cut())
	}
	return err
}

// Stores returns the per-partition segment stores, for callers that
// read manifests or maintenance counters.
func (l *Live) Stores() []*index.SegmentStore { return l.stores }
