package index

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

func TestPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	docs := randomDocs(rng, 300, 60)
	for _, opts := range []Options{
		DefaultOptions(),
		{BlockSize: 16},
		{BlockSize: 0},
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
		if got.opts != opts {
			t.Fatalf("options %+v round-tripped as %+v", opts, got.opts)
		}
		// The skip table must survive, for every term: SkipTo still works
		// and the block records match the index that was written.
		for i := range ix.termList {
			want, have := &ix.termList[i].pl, &got.termList[i].pl
			if !slices.Equal(want.blocks, have.blocks) {
				t.Fatalf("opts %+v term %q: block table %v round-tripped as %v", opts, ix.termList[i].term, want.blocks, have.blocks)
			}
		}
		if it := got.Postings(got.Terms()[0]); !it.SkipTo(0) {
			t.Fatal("SkipTo failed on loaded index")
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

// TestPersistRejectsOldVersion: a DWRIX2 (pre score-bound summary),
// DWRIX3 (per-block score bounds) or DWRIX4 (layout flag bytes) file is
// refused with a rebuild hint rather than misparsed.
func TestPersistRejectsOldVersion(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	b.AddDocument(1, []string{"alpha", "beta"})
	var buf bytes.Buffer
	if err := MustBuild(b).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, version := range []byte{'2', '3', '4'} {
		raw[5] = version // rewrite the version byte of the magic
		_, err := Read(bytes.NewReader(raw))
		if err == nil {
			t.Fatalf("format version %c accepted", version)
		}
		if !strings.Contains(err.Error(), "rebuild") {
			t.Fatalf("version %c error %q carries no rebuild hint", version, err)
		}
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

// TestReadRejectsUnwalkableBlockTable: the checksum vouches for the bytes,
// not for what they say, and the iterator indexes data by the block table
// unchecked — a block offset of 1<<20 over nine bytes of data used to load
// and panic in the first Next ("slice bounds out of range"). Each row
// tampers one list of a valid index in memory, writes it (so the file is
// CRC-valid) and re-reads it.
func TestReadRejectsUnwalkableBlockTable(t *testing.T) {
	tampers := []struct {
		name   string
		tamper func(pl *postingList, numDocs int)
	}{
		{"", func(*postingList, int) {}},
		{"offset past the data", func(pl *postingList, _ int) { pl.blocks[1].offset = 1 << 20 }},
		{"offsets out of order", func(pl *postingList, _ int) { pl.blocks[2].offset = pl.blocks[1].offset }},
		{"a block missing", func(pl *postingList, _ int) { pl.blocks = pl.blocks[:len(pl.blocks)-1] }},
		{"a block too many", func(pl *postingList, _ int) { pl.count -= 2 }},
		{"last documents out of order", func(pl *postingList, _ int) { pl.blocks[1].lastDoc = pl.blocks[0].lastDoc }},
		{"last document outside the table", func(pl *postingList, n int) { pl.blocks[len(pl.blocks)-1].lastDoc = int32(n) }},
		{"more postings than documents", func(pl *postingList, n int) { pl.count = n + 1 }},
	}
	for _, tc := range tampers {
		b := NewBuilder(Options{BlockSize: 4})
		for d := range 10 {
			b.AddDocument(d, []string{"a"})
		}
		ix := MustBuild(b) // one list, three blocks: 4 + 4 + 2 postings
		tc.tamper(&ix.termList[0].pl, ix.NumDocs())
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if tc.name == "" {
			if err != nil || !Equal(ix, got) {
				t.Fatalf("the untampered index did not round-trip: %v", err)
			}
		} else if err == nil {
			t.Fatalf("%s: block table accepted", tc.name)
		}
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

// hostileCounts are well-formed DWRIX5 prefixes that each announce one
// enormous count and then end: 2^31 documents (fifteen bytes in all),
// 2^31 terms, 2^32 bytes of posting data, 2^31 blocks.
func hostileCounts() map[string][]byte {
	uv := func(prefix []byte, vs ...uint64) []byte {
		b := slices.Clone(prefix)
		for _, v := range vs {
			b = binary.AppendUvarint(b, v)
		}
		return b
	}
	// 128 postings per block.
	header := uv(persistMagic[:8:8], 128)
	// No documents; one term "a" with its count, cf, maxTF, minLen,
	// satBound and quantAvg.
	oneTerm := uv(append(uv(header, 0, 1, 1), 'a'), 1, 1, 1, 1, 0, 0)
	return map[string][]byte{
		"docs":   uv(header, 1<<31),
		"terms":  uv(header, 0, 1<<31),
		"data":   uv(oneTerm, 1<<32),
		"blocks": uv(oneTerm, 0, 1<<31),
	}
}

// TestReadAllocatesWhatTheStreamDelivers: a count is read long before the
// checksum can vouch for it, so Read must not reserve memory on its say-so.
// Each input used to reserve 8 to 200 GiB and die with "fatal error:
// runtime: out of memory"; the TotalAlloc bound keeps the test failing on
// a machine where such a reservation happens to succeed.
func TestReadAllocatesWhatTheStreamDelivers(t *testing.T) {
	for name, raw := range hostileCounts() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := Read(bytes.NewReader(raw))
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: a %d-byte file announcing an enormous count was accepted", name, len(raw))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
			t.Fatalf("%s: Read allocated %d bytes for a %d-byte input", name, grew, len(raw))
		}
	}
}

// FuzzRead: whatever the bytes, Read returns an error or an index that
// survives a Write/Read round trip — never a panic, never an allocation
// the input did not pay for.
func FuzzRead(f *testing.F) {
	docs := randomDocs(rand.New(rand.NewSource(23)), 40, 20)
	for _, opts := range []Options{
		DefaultOptions(),
		{BlockSize: 16},
		{},
	} {
		var buf bytes.Buffer
		if err := buildDocs(f, opts, docs).Write(&buf); err != nil {
			f.Fatal(err)
		}
		raw := buf.Bytes()
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-3])
	}
	for _, raw := range hostileCounts() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ix, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-reading an accepted index: %v", err)
		}
		if !Equal(ix, again) {
			t.Fatal("an accepted index changed across a Write/Read round trip")
		}
	})
}
