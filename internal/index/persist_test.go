package index

import (
	"bytes"
	"encoding/binary"
	"math"
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
// DWRIX3 (per-block score bounds), DWRIX4 (layout flag bytes), DWRIX5
// (group-varint blocks) or DWRIX6 (persisted cf and score-bound summary)
// file is refused with a rebuild hint rather than misparsed.
func TestPersistRejectsOldVersion(t *testing.T) {
	b := NewBuilder(DefaultOptions())
	b.AddDocument(1, []string{"alpha", "beta"})
	var buf bytes.Buffer
	if err := MustBuild(b).Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for _, version := range []byte{'2', '3', '4', '5', '6'} {
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
// and reads the blocks' widths unchecked — a block offset of 1<<20 over
// nine bytes of data used to load and panic in the first Next ("slice
// bounds out of range"). Each row tampers one list of a valid index in
// memory, writes it (so the file is CRC-valid) and re-reads it. The list
// is three blocks of docs 0–3, 4–7 and 8–9, each packed at 2, 2 and 1
// doc bits, with no TF bits (every tf is 1).
func TestReadRejectsUnwalkableBlockTable(t *testing.T) {
	// blockByte returns the index in pl.data of byte i of block b.
	blockByte := func(pl *postingList, b, i int) int { return int(pl.blocks[b].offset) + i }
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
		{"doc width past 32 bits", func(pl *postingList, _ int) { pl.data[0] = 33 }},
		{"TF width past 31 bits", func(pl *postingList, _ int) { pl.data[1] = 32 }},
		{"packed docs past the block", func(pl *postingList, _ int) { pl.data[0] = 32 }},
		{"packed TFs into the tail pad", func(pl *postingList, _ int) { pl.data[blockByte(pl, 2, 1)] = 31 }},
		{"tail pad missing", func(pl *postingList, _ int) { pl.data = pl.data[:len(pl.data)-tailPad] }},
		{"tail pad not zero", func(pl *postingList, _ int) { pl.data[len(pl.data)-1] = 1 }},
		{"docs not increasing", func(pl *postingList, _ int) { pl.data[blockByte(pl, 1, 2)] = 0 }},
		{"last doc is not the block's", func(pl *postingList, _ int) { pl.blocks[0].lastDoc = 2 }},
		{"doc past the document table", func(pl *postingList, _ int) {
			// Block 2 at 3 doc bits: values 2 and 7, docs 10 and 15.
			pl.data[blockByte(pl, 2, 0)], pl.data[blockByte(pl, 2, 2)] = 3, 0b111_010
		}},
		{"positions past the block", func(pl *postingList, _ int) { pl.data[blockByte(pl, 0, 3)] = 9 }},
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

// TestReadRejectsWhatNoBuilderWrites: a builder writes terms in strictly
// ascending order, each with a posting, and documents no longer than
// MaxInt32 tokens, and Read refuses a CRC-valid file that breaks any of
// these. A repeated term used to be
// accepted with the dictionary pointing at its last list, so the first
// list's postings were unreachable while Manifest.LocalStats summed both
// lists' DF; a length past MaxInt32 wrapped MinLen negative; an empty
// list entered the lexicon with DF 0.
func TestReadRejectsWhatNoBuilderWrites(t *testing.T) {
	tampers := []struct {
		name   string
		tamper func(ix *Index)
	}{
		{"", func(*Index) {}},
		{"a repeated term", func(ix *Index) { ix.termList[1].term = ix.termList[0].term }},
		{"terms out of order", func(ix *Index) { ix.termList[0], ix.termList[1] = ix.termList[1], ix.termList[0] }},
		{"a document past MaxInt32 tokens", func(ix *Index) { ix.docs[0].length = math.MaxInt32 + 1 }},
		{"an empty posting list", func(ix *Index) { ix.termList[1].pl = postingList{} }},
	}
	for _, tc := range tampers {
		b := NewBuilder(DefaultOptions())
		b.AddDocument(1, []string{"alpha", "beta", "alpha"})
		b.AddDocument(2, []string{"beta", "gamma"})
		ix := MustBuild(b)
		tc.tamper(ix)
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
			t.Fatalf("%s: accepted", tc.name)
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

// hostileCounts are well-formed DWRIX7 prefixes that each announce one
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
	// No documents; one term "a" with its posting count.
	oneTerm := uv(append(uv(header, 0, 1, 1), 'a'), 1)
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

// impliedSummary is what term's postings in ix say its score-bound
// summary and collection frequency are: the largest tf, the shortest
// document, the sum of the TFs.
func impliedSummary(ix *Index, term string) (TermScoreMeta, int64) {
	m, cf := TermScoreMeta{MinLen: math.MaxInt32}, int64(0)
	for it := ix.Postings(term); it.Next(); {
		m.MaxTF, m.MinLen = max(m.MaxTF, it.TF()), min(m.MinLen, int32(ix.DocLen(it.Doc())))
		cf += int64(it.TF())
	}
	if cf == 0 {
		m.MinLen = 0
	}
	return m, cf
}

// FuzzRead: whatever the bytes, Read returns an error or an index that
// survives a Write/Read round trip and whose every score-bound summary
// and collection frequency is the one its postings imply — never a
// panic, never an allocation the input did not pay for, never a bound a
// file can forge. Besides valid files and their prefixes, the seeds hold
// checksummed files whose first block claims a doc or TF width past what
// the validator accepts, so mutations start behind the CRC, and files
// written from indexes whose in-memory summaries were lowered first (a
// MaxTF of 1 and a MinLen of 2^20 let MaxScore skip lists that hold top
// documents).
func FuzzRead(f *testing.F) {
	docs := randomDocs(rand.New(rand.NewSource(23)), 40, 20)
	for _, opts := range []Options{
		DefaultOptions(),
		{BlockSize: 16},
		{},
	} {
		ix := buildDocs(f, opts, docs)
		var buf bytes.Buffer
		if err := ix.Write(&buf); err != nil {
			f.Fatal(err)
		}
		raw := bytes.Clone(buf.Bytes())
		f.Add(raw)
		f.Add(raw[:len(raw)/2])
		f.Add(raw[:len(raw)-3])
		for i, width := range []byte{33, 32} { // docW past 32, tfW past 31
			data := ix.termList[0].pl.data
			was := data[i]
			data[i] = width
			buf.Reset()
			if err := ix.Write(&buf); err != nil {
				f.Fatal(err)
			}
			data[i] = was
			f.Add(bytes.Clone(buf.Bytes()))
		}
		for i := range ix.termList {
			pl := &ix.termList[i].pl
			pl.cf, pl.meta = 1, TermScoreMeta{MaxTF: 1, MinLen: 1 << 20}
		}
		buf.Reset()
		if err := ix.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
	for _, raw := range hostileCounts() {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		ix, err := Read(bytes.NewReader(raw))
		if err != nil {
			return
		}
		for _, term := range ix.Terms() {
			want, wantCF := impliedSummary(ix, term)
			if got, _ := ix.TermScoreMeta(term); got != want || ix.CF(term) != wantCF {
				t.Fatalf("term %q: summary %+v and cf %d, its postings imply %+v and %d", term, got, ix.CF(term), want, wantCF)
			}
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
