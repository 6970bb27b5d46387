package index

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// sameIndex fails unless got is want byte for byte: document table,
// lexicon order, and per term the encoded postings, skip table and
// every resident statistic (count, cf, maxTF, minLen).
func sameIndex(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if !slices.Equal(got.docs, want.docs) || got.totalLen != want.totalLen || !maps.Equal(got.docByExt, want.docByExt) {
		t.Fatalf("%s: document tables differ:\n got %v\nwant %v", label, got.docs, want.docs)
	}
	if len(got.termList) != len(want.termList) || !maps.Equal(got.terms, want.terms) {
		t.Fatalf("%s: lexicons differ:\n got %v\nwant %v", label, got.Terms(), want.Terms())
	}
	for i, w := range want.termList {
		if g := got.termList[i]; !reflect.DeepEqual(g, w) {
			g.pl.data, w.pl.data = nil, nil
			t.Fatalf("%s: term %q: posting bytes, blocks or statistics differ:\n got %+v\nwant %+v", label, w.term, g, w)
		}
	}
}

// TestMergeMatchesReindex is the oracle for the posting-level merge:
// whatever the segment split, layout and tombstone set, the merged
// index must be byte-identical to the reference builder fed the
// surviving documents in the order the merge was asked for — segments,
// external-ID-ordered parts and map-reduce's partials alike.
func TestMergeMatchesReindex(t *testing.T) {
	layouts := []Options{
		{BlockSize: 8},
		{BlockSize: 32},
		{},
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 150; trial++ {
		opts := layouts[trial%len(layouts)]
		label := fmt.Sprintf("trial %d", trial)

		// Documents arrive with external IDs out of order; doc 0 holds a
		// term nobody else does.
		docs := make([]Doc, 1+rng.Intn(200))
		for i, ext := range rng.Perm(len(docs)) {
			terms := make([]string, 1+rng.Intn(30))
			for j := range terms {
				terms[j] = fmt.Sprintf("t%02d", int(rng.ExpFloat64()*8))
			}
			docs[i] = Doc{Ext: 7 * ext, Terms: terms}
		}
		docs[0].Terms = append(docs[0].Terms, "doomed")

		// A third of the documents are tombstoned: always doc 0 (its
		// term must leave the lexicon), in every fifth trial all of them.
		drop := map[int]bool{docs[0].Ext: true}
		for _, d := range docs {
			if trial%5 == 4 || rng.Intn(3) == 0 {
				drop[d.Ext] = true
			}
		}
		var arrival []Doc
		for _, d := range docs {
			if !drop[d.Ext] {
				arrival = append(arrival, d)
			}
		}
		sorted := slices.Clone(arrival)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Ext < sorted[j].Ext })

		// Arrival order: consecutive runs of the stream are the segments.
		var segs []*Index
		for lo := 0; lo < len(docs); {
			hi := min(lo+1+rng.Intn(len(docs)), len(docs))
			segs = append(segs, buildDocs(t, opts, docs[lo:hi]))
			lo = hi
		}
		got, dropped := mergeSegments(opts, segs, drop)
		sameIndex(t, label+" arrival order", got, buildDocs(t, opts, arrival))
		if len(dropped) != len(drop) {
			t.Fatalf("%s: merge dropped %d documents, want %d", label, len(dropped), len(drop))
		}
		if got.DF("doomed") != 0 || slices.Contains(got.Terms(), "doomed") {
			t.Fatalf("%s: a term whose every posting was tombstoned stayed in the lexicon", label)
		}
		if trial%5 == 4 && (got.NumDocs() != 0 || got.NumTerms() != 0) {
			t.Fatalf("%s: all documents tombstoned, merge kept %d docs / %d terms", label, got.NumDocs(), got.NumTerms())
		}

		// External-ID order: documents dealt to the parts at random.
		dealt := make([][]Doc, 1+rng.Intn(5))
		for _, d := range docs {
			p := rng.Intn(len(dealt))
			dealt[p] = append(dealt[p], d)
		}
		parts, err := BuildAll(opts, len(dealt), func(p int, b *MemBuilder) (int, error) {
			for _, d := range dealt[p] {
				b.AddDocument(d.Ext, d.Terms)
			}
			return 0, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = mergeParts(opts, parts, byExtID, drop, 1+trial%4)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, label+" external-ID order", got, buildDocs(t, opts, sorted))
	}

	// Map-reduce's reduce phase is the same merge: any reducer count gives
	// the external-ID-ordered merge over the same documents.
	docs := randomDocs(rng, 150, 40)
	rng.Shuffle(len(docs), func(i, j int) { docs[i], docs[j] = docs[j], docs[i] })
	opts := DefaultOptions()
	want, _, err := mergeParts(opts, []*Index{buildDocs(t, opts, docs[:40]), buildDocs(t, opts, docs[40:])}, byExtID, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, reducers := range []int{1, 4} {
		got, err := BuildMapReduce(opts, docs, 3, reducers)
		if err != nil {
			t.Fatal(err)
		}
		sameIndex(t, fmt.Sprintf("map-reduce, %d reducers", reducers), got, want)
	}
}

// BenchmarkSegmentIngest is the microbenchmark behind bench/'s traced
// index.add_us_mean, the mean SegmentWriter.AddDocument time: 4 000
// documents through a SegmentWriter sealing every 128 into a radix-3
// store, every merge of the cascade inline. merged_docs/op rides along
// so a merge policy change cannot hide in the time.
func BenchmarkSegmentIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(57))
	zipf := rand.NewZipf(rng, 1.1, 4, 1<<14)
	docs := make([]Doc, 4000)
	for i := range docs {
		terms := make([]string, 50+rng.Intn(200))
		for j := range terms {
			terms[j] = fmt.Sprintf("w%d", zipf.Uint64())
		}
		docs[i] = Doc{Ext: i, Terms: terms}
	}
	b.ReportAllocs()
	b.ResetTimer()
	merged := 0
	for n := 0; n < b.N; n++ {
		s := NewSegmentStore(DefaultOptions(), MergePolicy{Radix: 3})
		w := NewSegmentWriter(s, 128)
		for _, d := range docs {
			if err := w.AddDocument(d.Ext, d.Terms); err != nil {
				b.Fatal(err)
			}
		}
		if err := w.Cut(); err != nil {
			b.Fatal(err)
		}
		merged = s.Stats().MergedDocs
	}
	b.ReportMetric(float64(merged), "merged_docs/op")
}
