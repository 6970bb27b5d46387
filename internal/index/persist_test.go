package index

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	docs := randomDocs(rng, 300, 60)
	for _, opts := range []Options{
		DefaultOptions(),
		{Compress: false, StorePositions: true, BlockSize: 16},
		{Compress: true, StorePositions: false, BlockSize: 0},
	} {
		b := NewBuilder(opts)
		for _, d := range docs {
			b.AddDocument(d.Ext, d.Terms)
		}
		ix := MustBuild(b)

		path := filepath.Join(t.TempDir(), "test.idx")
		if err := ix.WriteFile(path); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !Equal(ix, got) {
			t.Fatalf("opts %+v: round-tripped index differs", opts)
		}
		if got.Options() != opts {
			t.Fatalf("options %+v round-tripped as %+v", opts, got.Options())
		}
		// Block metadata must survive: SkipTo still works and the block
		// bounds match the rebuilt index.
		term := got.Terms()[0]
		it := got.Postings(term)
		if it.Count() > 2 {
			if !it.SkipTo(0) {
				t.Fatal("SkipTo failed on loaded index")
			}
		}
		ref := ix.Postings(term)
		if it.NumBlocks() != ref.NumBlocks() {
			t.Fatalf("block count %d round-tripped as %d", ref.NumBlocks(), it.NumBlocks())
		}
		for bi := 0; bi < ref.NumBlocks(); bi++ {
			if it.pl.blocks[bi].lastDoc != ref.pl.blocks[bi].lastDoc ||
				it.BlockMaxTF(bi) != ref.BlockMaxTF(bi) ||
				it.BlockMinDocLen(bi) != ref.BlockMinDocLen(bi) ||
				it.BlockMaxSat(bi) != ref.BlockMaxSat(bi) {
				t.Fatalf("block %d metadata differs after round trip", bi)
			}
		}
		// The resident score-bound aggregates must survive for every term
		// (the broker's partition pruning reads them without postings).
		for _, tm := range ix.Terms() {
			want, ok1 := ix.TermScoreMeta(tm)
			have, ok2 := got.TermScoreMeta(tm)
			if !ok1 || !ok2 || want != have {
				t.Fatalf("opts %+v term %q: score metadata %+v round-tripped as %+v (ok %v %v)",
					opts, tm, want, have, ok1, ok2)
			}
		}
	}
}

// TestPersistRejectsOldVersion: a DWRIX2 (pre score-bound aggregates)
// file is refused with a rebuild hint rather than misparsed.
func TestPersistRejectsOldVersion(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	b.AddDocument(1, []string{"alpha", "beta"})
	var buf bytes.Buffer
	if err := MustBuild(b).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[5] = '2' // rewrite the version byte of the magic
	_, err := Read(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("old format version accepted")
	}
	if !strings.Contains(err.Error(), "rebuild") {
		t.Fatalf("version error %q carries no rebuild hint", err)
	}
}

func TestPersistEmptyIndex(t *testing.T) {
	ix := MustBuild(NewBuilder(DefaultOptions()))
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 0 || got.NumTerms() != 0 {
		t.Fatal("empty index round-trip not empty")
	}
}

func TestPersistRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTANIDX........."))); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestPersistRejectsCorruption(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	b.AddDocument(1, []string{"alpha", "beta", "alpha"})
	b.AddDocument(2, []string{"beta", "gamma"})
	ix := MustBuild(b)
	var buf bytes.Buffer
	if err := ix.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip one bit in the middle of the payload: the checksum must catch it.
	corrupted := append([]byte(nil), raw...)
	corrupted[len(corrupted)/2] ^= 0x40
	if _, err := Read(bytes.NewReader(corrupted)); err == nil {
		t.Fatal("corrupted index accepted")
	}
	// Truncation must also fail cleanly.
	if _, err := Read(bytes.NewReader(raw[:len(raw)-10])); err == nil {
		t.Fatal("truncated index accepted")
	}
}

func TestWriteFileAtomic(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	b.AddDocument(1, []string{"x"})
	ix := MustBuild(b)
	path := filepath.Join(t.TempDir(), "atomic.idx")
	if err := ix.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind")
	}
	// Overwrite with a different index: readers must see either version,
	// never a partial file (atomicity via rename).
	b2 := NewBuilder(DefaultOptions())
	b2.AddDocument(2, []string{"y", "z"})
	if err := MustBuild(b2).WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumDocs() != 1 || got.InternalID(2) < 0 {
		t.Fatal("overwritten index wrong")
	}
}

func TestReadFileMissing(t *testing.T) {
	if _, err := ReadFile(filepath.Join(t.TempDir(), "nope.idx")); err == nil {
		t.Fatal("missing file accepted")
	}
}
