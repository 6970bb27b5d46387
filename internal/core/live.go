package core

import (
	"errors"
	"fmt"

	"dwr/internal/conc"
	"dwr/internal/crawler"
	"dwr/internal/index"
	"dwr/internal/qproc"
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
}

// NewLive assembles partitions empty segment stores (merge radix 3), a
// writer over each that seals a segment every segDocs documents, and
// the live engine over the stores, built with opts. Merges run on
// mergePool; nil runs them inline in the ingesting goroutine, which
// makes every manifest swap a function of the ingest order alone — the
// mode replay-identity checks need.
func NewLive(partitions, segDocs int, mergePool *conc.Pool, opts ...qproc.Option) (*Live, error) {
	if partitions < 1 {
		return nil, fmt.Errorf("core: a live engine needs at least one partition, got %d", partitions)
	}
	l := &Live{
		stores:  make([]*index.SegmentStore, partitions),
		writers: make([]*index.SegmentWriter, partitions),
	}
	for i := range l.stores {
		l.stores[i] = index.NewSegmentStore(index.DefaultOptions(), index.MergePolicy{Radix: 3})
		if mergePool != nil {
			l.stores[i].Background(mergePool)
		}
		l.writers[i] = index.NewSegmentWriter(l.stores[i], segDocs)
	}
	eng, err := qproc.NewLiveEngine(l.stores, opts...)
	if err != nil {
		return nil, err
	}
	l.Query = eng
	return l, nil
}

// Ingest parses a crawled page (PageDoc) and hands the document to the
// writer of partition PageID mod K. ok is false when nothing was added:
// the page has no indexable text, or it is a refetch of a page the
// partition already holds.
func (l *Live) Ingest(p *crawler.Page) (part int, ok bool) {
	d, ok := PageDoc(p)
	if !ok {
		return 0, false
	}
	part = d.Ext % len(l.writers)
	return part, l.writers[part].AddDocument(d.Ext, d.Terms) == nil
}

// Seal ends a burst of ingest: every writer's partial buffer becomes a
// searchable segment, and the call returns once the background merges
// those segments set off have finished.
func (l *Live) Seal() error {
	var err error
	for _, w := range l.writers {
		err = errors.Join(err, w.Cut())
	}
	for _, s := range l.stores {
		s.Quiesce()
	}
	return err
}

// Stores returns the per-partition segment stores, for callers that
// read manifests or maintenance counters.
func (l *Live) Stores() []*index.SegmentStore { return l.stores }
