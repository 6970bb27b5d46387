package index

import (
	"errors"
	"sort"

	"dwr/internal/conc"
)

// Doc is one tokenized input document for the distributed builders.
type Doc struct {
	Ext   int
	Terms []string
}

// DocIDs returns the documents' external IDs in order — the ID slice
// the document partitioners take.
func DocIDs(docs []Doc) []int {
	ids := make([]int, 0, len(docs))
	for _, d := range docs {
		ids = append(ids, d.Ext)
	}
	return ids
}

// BuildMapReduce constructs an index with the map-reduce strategy of
// Dean & Ghemawat that the paper cites for distributed index
// construction (§4): mappers invert disjoint document chunks in
// parallel, reducers own disjoint term ranges and merge the partial
// posting lists, and the shuffled result is assembled into one index.
func BuildMapReduce(opts Options, docs []Doc, mappers, reducers int) (*Index, error) {
	if mappers <= 0 {
		mappers = 1
	}
	if reducers <= 0 {
		reducers = 1
	}

	// Map phase: chunk documents contiguously, invert each chunk in
	// parallel with the reference builder.
	per := (len(docs) + mappers - 1) / mappers
	partials := make([]*Index, mappers)
	errs := make([]error, mappers)
	conc.Do(mappers, mappers, func(i int) {
		partials[i], errs[i] = Build(opts, docs[min(i*per, len(docs)):min((i+1)*per, len(docs))])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}

	// Shuffle + reduce: every term's partial lists are merged against one
	// document table in external-ID order (which is also where a document
	// two mappers both saw is caught), the union lexicon split over the
	// reducers.
	ix, _, err := mergeParts(opts, partials, byExtID, nil, reducers)
	return ix, err
}

// BuildPipeline constructs an index with the pipelined organization of
// Melink et al. (§4): documents stream through a chain of stage workers,
// each owning a contiguous lexicographic term range and inverting only
// the occurrences in its range; the per-stage partial indexes are merged
// at the end of the pipe.
func BuildPipeline(opts Options, docs []Doc, stages int) (*Index, error) {
	if stages <= 0 {
		stages = 1
	}

	// Determine term-range boundaries from a sample of the vocabulary so
	// stages get comparable work.
	vocab := make(map[string]bool)
	for _, d := range docs {
		for _, t := range d.Terms {
			vocab[t] = true
		}
	}
	terms := make([]string, 0, len(vocab))
	for t := range vocab {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	if len(terms) == 0 {
		stages = 1
	}
	bounds := make([]string, stages-1) // stage s handles [bounds[s-1], bounds[s])
	for s := 1; s < stages; s++ {
		bounds[s-1] = terms[len(terms)*s/stages]
	}
	stageOf := func(t string) int {
		return sort.SearchStrings(bounds, t+"\x00")
	}

	// Build the shared document table first, in external-ID order, so
	// internal ordinals match the other builders; the pipeline stages
	// then stream the same ordered documents through the stage chain.
	sorted := append([]Doc(nil), docs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ext < sorted[j].Ext })
	var dt docTable
	for _, d := range sorted {
		if _, err := dt.add(d.Ext, len(d.Terms)); err != nil {
			return nil, err
		}
	}
	ix := dt.index(opts)

	// The pipeline: each stage owns a posting buffer and inverts only
	// occurrences in its term range, seeing documents in ordinal order
	// (conc.Pipeline's ordering contract), so posting lists come out
	// document-ordered like the serial builder's.
	bufs := make([]postingBuffer, stages)
	conc.Pipeline(len(sorted), stages, func(s, li int) {
		bufs[s].add(int32(li), sorted[li].Terms, func(t string) bool { return stageOf(t) == s })
	})

	// Collect stage outputs: the term ranges are disjoint, ascending and
	// cover the vocabulary, so the stages' lexicons in stage order are
	// the sorted lexicon.
	for s := range bufs {
		bufs[s].appendTo(ix, 1)
	}
	ix.deriveFrontiers()
	return ix, nil
}
