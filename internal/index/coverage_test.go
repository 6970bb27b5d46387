package index

import (
	"path/filepath"
	"testing"
)

// Targeted tests for paths the main suites exercise only indirectly.

func TestAddDocumentFilteredKeepsFullLength(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	terms := []string{"keep", "drop", "keep", "drop", "drop"}
	b.AddDocumentFiltered(9, terms, func(t string) bool { return t == "keep" })
	ix := MustBuild(b)
	// Only the kept term is indexed...
	if ix.DF("keep") != 1 || ix.DF("drop") != 0 {
		t.Fatalf("df keep=%d drop=%d", ix.DF("keep"), ix.DF("drop"))
	}
	// ...but the document's true length (for BM25 normalization) is the
	// full token count.
	if ix.DocLen(0) != 5 {
		t.Fatalf("DocLen = %d, want 5", ix.DocLen(0))
	}
	// Positions are the original token positions.
	it := ix.PostingsWithPositions("keep")
	it.Next()
	p := it.Posting()
	if p.TF != 2 || p.Pos[0] != 0 || p.Pos[1] != 2 {
		t.Fatalf("posting = %+v, want tf=2 pos=[0 2]", p)
	}
}

func TestAddDocumentFilteredDuplicateErrors(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	if err := b.AddDocumentFiltered(1, []string{"a"}, func(string) bool { return true }); err != nil {
		t.Fatal(err)
	}
	if err := b.AddDocumentFiltered(1, []string{"b"}, func(string) bool { return true }); err == nil {
		t.Fatal("duplicate AddDocumentFiltered did not error")
	}
}

func TestBuilderNumDocs(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	if b.NumDocs() != 0 {
		t.Fatal("fresh builder not empty")
	}
	b.AddDocument(1, []string{"x"})
	b.AddDocument(2, []string{"y"})
	if b.NumDocs() != 2 {
		t.Fatalf("NumDocs = %d", b.NumDocs())
	}
}

func TestPostingBytes(t *testing.T) {
	ix := buildTiny(DefaultOptions())
	if ix.PostingBytes("apple") <= 0 {
		t.Fatal("present term has no posting bytes")
	}
	if ix.PostingBytes("missing") != 0 {
		t.Fatal("absent term has posting bytes")
	}
}

func TestEqualDetectsDifferences(t *testing.T) {
	mk := func(tfB int32) *Index {
		b := NewBuilder(DefaultOptions())
		terms := []string{"a"}
		for i := int32(0); i < tfB; i++ {
			terms = append(terms, "b")
		}
		b.AddDocument(1, terms)
		return MustBuild(b)
	}
	if Equal(mk(1), mk(2)) {
		t.Fatal("Equal missed a TF difference")
	}
	// Different doc sets.
	a := NewBuilder(DefaultOptions())
	a.AddDocument(1, []string{"x"})
	c := NewBuilder(DefaultOptions())
	c.AddDocument(2, []string{"x"})
	if Equal(MustBuild(a), MustBuild(c)) {
		t.Fatal("Equal missed a document-ID difference")
	}
	// Different lexicons, same sizes.
	d := NewBuilder(DefaultOptions())
	d.AddDocument(1, []string{"y"})
	if Equal(MustBuild(a), MustBuild(d)) {
		t.Fatal("Equal missed a lexicon difference")
	}
}

func TestNewSegmentWriterClampsArguments(t *testing.T) {
	s := NewSegmentStore(DefaultOptions(), MergePolicy{})
	w := NewSegmentWriter(s, 0)
	// Defaults applied (512-document segments, radix 3): must still work
	// end to end.
	for i := 0; i < 1100; i++ {
		if err := w.AddDocument(i, []string{"w"}); err != nil {
			t.Fatal(err)
		}
	}
	if w.NumDocs() != 1100 || len(w.tail) != 1100-2*512 || s.Stats().Applied != 2 {
		t.Fatalf("NumDocs = %d, tail = %d, segments applied = %d", w.NumDocs(), len(w.tail), s.Stats().Applied)
	}
	if st := s.Stats(); st.Merges != 1 || w.View().NumDocs() != 1100 {
		t.Fatalf("stats %+v, view holds %d docs", st, w.View().NumDocs())
	}
}

func TestDynamicDeleteUnknownNoop(t *testing.T) {
	w, _ := newWriter(4, 2)
	w.AddDocument(1, []string{"a"})
	if w.Delete(999) { // unknown: no effect, no panic
		t.Fatal("Delete of an unknown doc reported success")
	}
	if got := w.View().NumDocs(); got != 1 {
		t.Fatalf("NumDocs = %d after deleting unknown doc", got)
	}
}

func TestWriteFileToUnwritablePath(t *testing.T) {
	ix := buildTiny(DefaultOptions())
	err := ix.WriteFile(filepath.Join(t.TempDir(), "no", "such", "dir", "x.idx"))
	if err == nil {
		t.Fatal("writing into a missing directory succeeded")
	}
}

func TestNewSPIMIBuilderBadDir(t *testing.T) {
	if _, err := NewSPIMIBuilder(DefaultOptions(), 1024, filepath.Join(t.TempDir(), "missing", "deep")); err == nil {
		t.Fatal("SPIMI accepted an uncreatable spill dir")
	}
}

func TestSPIMIDefaultBudget(t *testing.T) {
	sp, err := NewSPIMIBuilder(DefaultOptions(), 0, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := sp.AddDocument(1, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	ix, err := sp.Build()
	if err != nil || ix.NumDocs() != 1 {
		t.Fatalf("build: %v, docs %d", err, ix.NumDocs())
	}
}
