package index

import (
	"bytes"
	"math/rand"
	"sort"
	"testing"
)

// invert is the per-document inverter the builders used before the
// shared posting buffer, kept verbatim as the oracle FuzzInvert holds
// them to: it groups the token positions of document doc per term and
// emits one posting per distinct term for which keep returns true (nil
// keeps every term), in no particular term order. Positions index the
// full token sequence, filtered or not.
func invert(doc int32, terms []string, keep func(string) bool, emit func(term string, p Posting)) {
	occ := make(map[string][]int32)
	for i, t := range terms {
		if keep == nil || keep(t) {
			occ[t] = append(occ[t], int32(i))
		}
	}
	for t, poss := range occ {
		emit(t, Posting{Doc: doc, TF: int32(len(poss)), Pos: poss})
	}
}

// oracleBuild is the old MemBuilder over invert: a posting map per term,
// the lexicon sorted at the end. It also returns how many runs an old
// SPIMIBuilder with the given budget would have spilled over docs (keep
// nil), from the same per-posting charge.
func oracleBuild(tb testing.TB, opts Options, docs []Doc, keep func(string) bool, budget int) (*Index, int) {
	tb.Helper()
	var dt docTable
	posting := make(map[string][]Posting)
	spills, curBytes := 0, 0
	for _, d := range docs {
		doc, err := dt.add(d.Ext, len(d.Terms))
		if err != nil {
			tb.Fatal(err)
		}
		invert(doc, d.Terms, keep, func(t string, p Posting) {
			posting[t] = append(posting[t], p)
			curBytes += 12 + len(t) + 4*len(p.Pos)
		})
		if curBytes >= budget { // budget > 0, so the buffer holds a posting
			spills++
			curBytes = 0
		}
	}
	if curBytes > 0 {
		spills++ // Build's final spill
	}
	ix := dt.index(opts)
	terms := make([]string, 0, len(posting))
	for t := range posting {
		terms = append(terms, t)
	}
	sort.Strings(terms)
	for _, t := range terms {
		ix.addTerm(t, encodePostings(posting[t], opts, ix.docs))
	}
	return ix, spills
}

// sameBytes fails unless got is Equal to want and writes the same bytes.
func sameBytes(t *testing.T, label string, got, want *Index) {
	t.Helper()
	if !Equal(got, want) {
		t.Fatalf("%s: index differs from the oracle's", label)
	}
	var g, w bytes.Buffer
	if err := got.Write(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.Write(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("%s: Write bytes differ from the oracle's (%d vs %d bytes)", label, g.Len(), w.Len())
	}
}

// invertAlphabet is FuzzInvert's vocabulary: short, overlapping terms,
// so documents repeat terms and lists share prefixes.
var invertAlphabet = []string{"a", "b", "ab", "ba", "abc", "aa", "c", "z"}

// decodeInvertInput turns fuzz bytes into documents: a byte of 0xe0 or
// more ends the current document (so runs of them make empty ones),
// any other byte is the term invertAlphabet[b%8].
func decodeInvertInput(data []byte) []Doc {
	var docs []Doc
	var cur []string
	for _, c := range data {
		if c >= 0xe0 {
			docs = append(docs, Doc{Ext: 3*len(docs) + 1, Terms: cur})
			cur = nil
			continue
		}
		cur = append(cur, invertAlphabet[c%8])
	}
	return append(docs, Doc{Ext: 3*len(docs) + 1, Terms: cur})
}

// FuzzInvert holds every builder over the shared posting buffer to the
// old per-document inverter: MemBuilder, AddDocumentFiltered under a
// keep filter, a SPIMIBuilder whose budget makes it spill (and spill as
// often as it used to) and BuildPipeline each build an index Equal to
// the oracle's that writes the same bytes.
func FuzzInvert(f *testing.F) {
	f.Add(uint8(0xff), uint8(0), uint8(3), []byte{0, 1, 2, 0, 0xe0, 3, 4, 0xe0, 0xe0, 1, 1, 1})
	f.Add(uint8(0x0f), uint8(40), uint8(0), []byte{})
	f.Add(uint8(0x55), uint8(7), uint8(1), []byte{0xe0, 0xff, 0xe0})
	f.Add(uint8(0), uint8(200), uint8(7), []byte{5, 6, 7, 5, 6, 7, 0xe1, 7, 7, 7, 7, 0xe2, 2})
	f.Add(uint8(0xa3), uint8(1), uint8(2), bytes.Repeat([]byte{0, 1, 0xe0, 2, 3, 4, 5, 6, 7}, 20))
	f.Fuzz(func(t *testing.T, mask, budget, shape uint8, data []byte) {
		if len(data) > 1024 {
			return
		}
		docs := decodeInvertInput(data)
		opts := Options{BlockSize: 1 + int(shape%8)}
		keep := func(term string) bool {
			for i, a := range invertAlphabet {
				if a == term {
					return mask&(1<<i) != 0
				}
			}
			return false
		}
		spillBudget := 1 + int(budget)
		want, wantSpills := oracleBuild(t, opts, docs, nil, spillBudget)
		wantKept, _ := oracleBuild(t, opts, docs, keep, spillBudget)

		mb, fb := NewBuilder(opts), NewBuilder(opts)
		sp, err := NewSPIMIBuilder(opts, spillBudget, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := mb.AddDocument(d.Ext, d.Terms); err != nil {
				t.Fatal(err)
			}
			if err := fb.AddDocumentFiltered(d.Ext, d.Terms, keep); err != nil {
				t.Fatal(err)
			}
			if err := sp.AddDocument(d.Ext, d.Terms); err != nil {
				t.Fatal(err)
			}
		}
		sameBytes(t, "MemBuilder", MustBuild(mb), want)
		sameBytes(t, "AddDocumentFiltered", MustBuild(fb), wantKept)
		spIx, err := sp.Build()
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "SPIMIBuilder", spIx, want)
		if sp.Spills() != wantSpills {
			t.Fatalf("SPIMIBuilder spilled %d runs at budget %d, the old accounting %d", sp.Spills(), spillBudget, wantSpills)
		}
		pl, err := BuildPipeline(opts, docs, 1+int(shape>>3)%4)
		if err != nil {
			t.Fatal(err)
		}
		sameBytes(t, "BuildPipeline", pl, want)
	})
}

// TestAddDocumentAllocatesOnlyListGrowth: once the dictionary holds a
// document's terms, AddDocument allocates nothing but posting-slice and
// arena growth — under one allocation a document over 2 000 documents
// (the per-document term map and position slices cost 207 here).
func TestAddDocumentAllocatesOnlyListGrowth(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	vocab := make([]string, 400)
	for i := range vocab {
		vocab[i] = string(rune('a'+i%26)) + string(rune('a'+i/26))
	}
	docs := make([]Doc, 4000)
	for i := range docs {
		terms := make([]string, 150+rng.Intn(200))
		for j := range terms {
			terms[j] = vocab[rng.Intn(len(vocab))]
		}
		docs[i] = Doc{Ext: i, Terms: terms}
	}
	b := NewBuilder(DefaultOptions())
	for _, d := range docs[:2000] { // warm-up: every term becomes known
		b.AddDocument(d.Ext, d.Terms)
	}
	next := 2000
	avg := testing.AllocsPerRun(1999, func() {
		d := docs[next]
		if err := b.AddDocument(d.Ext, d.Terms); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if avg >= 1 {
		t.Fatalf("AddDocument of a known-term document: %.2f allocations, want under 1", avg)
	}
}

// TestSPIMISpillsAsBefore pins SPIMIBuilder's spill count at fixed
// budgets: the shared buffer charges each posting what the per-document
// inverter did, so a budget spills exactly as many runs as it did.
func TestSPIMISpillsAsBefore(t *testing.T) {
	docs := randomDocs(rand.New(rand.NewSource(42)), 300, 50)
	for _, tc := range []struct{ budget, spills int }{
		{1 << 10, 73}, {16 << 10, 6}, {1 << 20, 1},
	} {
		sp, err := NewSPIMIBuilder(DefaultOptions(), tc.budget, t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range docs {
			if err := sp.AddDocument(d.Ext, d.Terms); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sp.Build(); err != nil {
			t.Fatal(err)
		}
		_, oracle := oracleBuild(t, DefaultOptions(), docs, nil, tc.budget)
		if sp.Spills() != tc.spills || oracle != tc.spills {
			t.Fatalf("budget %d: %d spills (old accounting %d), want %d", tc.budget, sp.Spills(), oracle, tc.spills)
		}
	}
}
