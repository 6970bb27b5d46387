package index

import (
	"slices"
	"sort"

	"dwr/internal/conc"
)

// Merge combines partial indexes over disjoint document sets into one
// index — the "distributed merge operations" of Section 4. Documents are
// reordered by external ID so the result is independent of how documents
// were split across the parts, and postings are remapped accordingly.
// Merge returns an error if two parts contain the same external ID.
func Merge(opts Options, parts ...*Index) (*Index, error) {
	ix, _, err := mergeParts(opts, parts, byExtID, nil, 1)
	return ix, err
}

// mergeOrder is the order mergeParts assigns fresh ordinals in: byArrival
// keeps part order and each part's own ordinal order (the order a
// segment store's documents arrived in); byExtID sorts by external ID, so
// the result does not depend on how documents were split across parts.
type mergeOrder int

const (
	byArrival mergeOrder = iota
	byExtID
)

// mergeParts is the package's one merge, and it never goes back to
// documents: the documents drop does not name get fresh ordinals in the
// given order, then each term of the union lexicon has its lists decoded,
// remapped, filtered of dropped documents and re-encoded against the
// merged document table, over up to workers goroutines (each owns its
// lexicon slot, so the result is identical at any width). A term left
// with no posting leaves the lexicon. Document order, encodePostings and
// encodeStats are those of a MemBuilder fed the surviving documents in
// that order, so the result is byte-equal to that build's. Returned with
// it are the external IDs dropped; two surviving documents sharing an
// external ID are an error.
func mergeParts(opts Options, parts []*Index, order mergeOrder, drop map[int]bool, workers int) (*Index, []int, error) {
	type srcDoc struct {
		docEntry
		part  int
		local int32
	}
	var live []srcDoc
	var dropped []int
	remap := make([][]int32, len(parts)) // remap[part][local] = merged ordinal, -1 = dropped
	nTerms := 0
	for pi, p := range parts {
		remap[pi] = make([]int32, len(p.docs))
		nTerms += len(p.termList)
		for li, d := range p.docs {
			if drop[d.ext] {
				dropped = append(dropped, d.ext)
				remap[pi][li] = -1
				continue
			}
			live = append(live, srcDoc{docEntry: d, part: pi, local: int32(li)})
		}
	}
	if order == byExtID {
		sort.Slice(live, func(i, j int) bool { return live[i].ext < live[j].ext })
	}
	dt := docTable{docs: make([]docEntry, 0, len(live)), byExt: make(map[int]int, len(live))}
	for _, d := range live {
		doc, err := dt.add(d.ext, d.length)
		if err != nil {
			return nil, nil, err
		}
		remap[d.part][d.local] = doc
	}
	ix, st := dt.index(opts)

	terms := make([]string, 0, nTerms)
	for _, p := range parts {
		for i := range p.termList {
			terms = append(terms, p.termList[i].term)
		}
	}
	slices.Sort(terms)
	terms = slices.Compact(terms)

	lists := make([]postingList, len(terms))
	conc.Do(len(terms), workers, func(i int) {
		n := 0
		for _, p := range parts {
			n += p.DF(terms[i])
		}
		merged := make([]Posting, 0, n)
		var it Iterator
		for pi, p := range parts {
			j, ok := p.terms[terms[i]]
			if !ok {
				continue
			}
			it.reset(&p.termList[j].pl, p.opts, opts.StorePositions)
			for it.Next() {
				post := it.Posting()
				if post.Doc = remap[pi][post.Doc]; post.Doc >= 0 {
					merged = append(merged, post)
				}
			}
		}
		if order == byExtID {
			sort.Slice(merged, func(a, b int) bool { return merged[a].Doc < merged[b].Doc })
		}
		lists[i] = encodePostings(merged, opts, st)
	})

	// Size the lexicon exactly: it stays resident for the segment's life.
	n := 0
	for i := range lists {
		if lists[i].count > 0 {
			n++
		}
	}
	ix.terms = make(map[string]int, n)
	ix.termList = make([]termEntry, 0, n)
	for i, t := range terms {
		if lists[i].count > 0 {
			ix.addTerm(t, lists[i])
		}
	}
	return ix, dropped, nil
}
