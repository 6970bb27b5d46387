package index

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// randPostings draws a posting list with the given gap profile: small
// gaps make dense multi-block lists, large gaps stress the group-varint
// width selection, mixed gaps cross byte-length boundaries mid-group.
func randPostings(rng *rand.Rand, n, maxGap int, withPos bool) []Posting {
	ps := make([]Posting, n)
	doc := int32(0)
	for i := range ps {
		doc += int32(1 + rng.Intn(maxGap))
		tf := int32(1 + rng.Intn(7))
		p := Posting{Doc: doc, TF: tf}
		if withPos {
			pos := int32(0)
			p.Pos = make([]int32, tf)
			for j := range p.Pos {
				pos += int32(1 + rng.Intn(50))
				p.Pos[j] = pos
			}
		}
		ps[i] = p
	}
	return ps
}

// TestBlockIteratorAgainstLinearScan is the seeded property test of the
// block codec: for randomized lists across gap distributions, block
// sizes, Compress on/off, and positions on/off, Iterator.Next must
// reproduce the raw postings exactly and Iterator.SkipTo must agree with
// a linear scan for adversarial targets — block boundaries, the exact
// last document of each block, present and absent documents, and targets
// past the end.
func TestBlockIteratorAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		opts := Options{
			Compress:       trial%2 == 0,
			StorePositions: (trial/2)%2 == 0,
			BlockSize:      []int{0, 1, 4, 7, 128}[trial%5],
		}
		n := rng.Intn(400) // includes empty and single-block lists
		maxGap := []int{1, 3, 1000, 1 << 18}[rng.Intn(4)]
		ps := randPostings(rng, n, maxGap, opts.StorePositions)
		pl := encodePostings(ps, opts, encodeStats{})

		// Full forward decode == raw postings.
		got := pl.decodeAll(opts)
		want := ps
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, append([]Posting(nil), want...)) {
			t.Fatalf("trial %d opts %+v: decodeAll diverges (n=%d)", trial, opts, n)
		}

		// Adversarial SkipTo targets.
		targets := []int32{0, 1}
		bs := opts.blockSize()
		for b := 0; b*bs < len(ps); b++ {
			last := ps[min((b+1)*bs, len(ps))-1].Doc
			targets = append(targets, last, last+1, ps[b*bs].Doc) // exact block last, just past, block first
		}
		if len(ps) > 0 {
			final := ps[len(ps)-1].Doc
			targets = append(targets, final, final+1, final+1000)
			for i := 0; i < 10; i++ {
				targets = append(targets, int32(rng.Intn(int(final)+2)))
			}
		}
		for _, target := range targets {
			it := newIterator(&pl, opts, opts.StorePositions)
			var want *Posting
			for i := range ps {
				if ps[i].Doc >= target {
					want = &ps[i]
					break
				}
			}
			ok := it.SkipTo(target)
			if (want != nil) != ok {
				t.Fatalf("trial %d opts %+v: SkipTo(%d) = %v, want %v", trial, opts, target, ok, want != nil)
			}
			if ok && !reflect.DeepEqual(it.Posting(), *want) {
				t.Fatalf("trial %d opts %+v: SkipTo(%d) landed on %+v, want %+v", trial, opts, target, it.Posting(), *want)
			}
		}

		// Forward-only interleaved SkipTo/Next walk against the raw list.
		it := newIterator(&pl, opts, opts.StorePositions)
		i := 0
		for i < len(ps) {
			if rng.Intn(2) == 0 {
				if !it.Next() {
					t.Fatalf("trial %d: Next exhausted at %d/%d", trial, i, len(ps))
				}
			} else {
				jump := ps[min(i+rng.Intn(2*bs), len(ps)-1)].Doc
				if !it.SkipTo(jump) {
					t.Fatalf("trial %d: SkipTo(%d) exhausted at %d/%d", trial, jump, i, len(ps))
				}
				for ps[i].Doc < jump {
					i++
				}
			}
			if !reflect.DeepEqual(it.Posting(), ps[i]) {
				t.Fatalf("trial %d: walk diverged at %d: %+v vs %+v", trial, i, it.Posting(), ps[i])
			}
			i++
		}
		if it.Next() {
			t.Fatalf("trial %d: iterator ran past the end", trial)
		}
	}
}

// TestBlockMetadataInvariants checks what a list keeps about itself: each
// block's lastDoc is exact, and the list's score-bound summary dominates
// every posting — tf <= MaxTF, document length >= MinLen, default-ranker
// saturation <= SatBound — with SatBound exactly the largest block-level
// bound (a block's largest tf at its shortest document) under the index's
// own average length.
func TestBlockMetadataInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	b := NewBuilder(DefaultOptions())
	for d := 0; d < 500; d++ {
		terms := make([]string, 5+rng.Intn(120))
		for i := range terms {
			terms[i] = string(rune('a' + rng.Intn(20)))
		}
		b.AddDocument(d, terms)
	}
	ix := MustBuild(b)
	avg := ix.AvgDocLen()
	for _, term := range ix.Terms() {
		it := ix.Postings(term)
		m := it.ScoreMeta()
		if dict, _ := ix.TermScoreMeta(term); dict != m {
			t.Fatalf("term %q: iterator summary %+v, dictionary summary %+v", term, m, dict)
		}
		if m.QuantAvg != avg {
			t.Fatalf("term %q: SatBound assumes average length %g, the index has %g", term, m.QuantAvg, avg)
		}
		var ps []Posting
		for pit := ix.Postings(term); pit.Next(); {
			ps = append(ps, pit.Posting())
		}
		bs := ix.Options().blockSize()
		if want := (len(ps) + bs - 1) / bs; len(it.pl.blocks) != want {
			t.Fatalf("term %q: %d blocks for %d postings, want %d", term, len(it.pl.blocks), len(ps), want)
		}
		var wantSat float64
		for bi, blk := range it.pl.blocks {
			lo, hi := bi*bs, min((bi+1)*bs, len(ps))
			if blk.lastDoc != ps[hi-1].Doc {
				t.Fatalf("term %q block %d: lastDoc %d, want %d", term, bi, blk.lastDoc, ps[hi-1].Doc)
			}
			maxTF, minLen := int32(0), int32(math.MaxInt32)
			for _, p := range ps[lo:hi] {
				l := int32(ix.DocLen(p.Doc))
				maxTF, minLen = max(maxTF, p.TF), min(minLen, l)
				if p.TF > m.MaxTF {
					t.Fatalf("term %q: tf %d exceeds MaxTF %d", term, p.TF, m.MaxTF)
				}
				if l < m.MinLen {
					t.Fatalf("term %q: docLen %d below MinLen %d", term, l, m.MinLen)
				}
				if sat := bm25Sat(p.TF, l, avg); sat > m.SatBound {
					t.Fatalf("term %q: saturation %g exceeds SatBound %g", term, sat, m.SatBound)
				}
			}
			wantSat = max(wantSat, bm25Sat(maxTF, minLen, avg))
		}
		if m.SatBound != wantSat {
			t.Fatalf("term %q: SatBound %g, want the largest block bound %g", term, m.SatBound, wantSat)
		}
	}
}

// TestIteratorBytesDecodedCharges pins the decode accounting SkipTo's
// savings are measured in: a full walk charges every data byte (or just
// the doc+TF sections when positions are skipped), while a SkipTo into
// the last block charges only the blocks actually decoded.
func TestIteratorBytesDecodedCharges(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	opts := DefaultOptions()
	opts.BlockSize = 16
	ps := randPostings(rng, 160, 5, true)
	pl := encodePostings(ps, opts, encodeStats{})

	it := newIterator(&pl, opts, true)
	for it.Next() {
	}
	if it.BytesDecoded() != int64(len(pl.data)) {
		t.Fatalf("positional full walk decoded %d bytes, data is %d", it.BytesDecoded(), len(pl.data))
	}

	it = newIterator(&pl, opts, false)
	for it.Next() {
	}
	full := it.BytesDecoded()
	if full <= 0 || full >= int64(len(pl.data)) {
		t.Fatalf("doc+TF walk decoded %d bytes, want within (0, %d)", full, len(pl.data))
	}

	it = newIterator(&pl, opts, false)
	if !it.SkipTo(ps[len(ps)-1].Doc) {
		t.Fatal("SkipTo(last) failed")
	}
	if it.BytesDecoded() >= full/2 {
		t.Fatalf("SkipTo to the last block decoded %d bytes; full walk is %d — blocks were not skipped", it.BytesDecoded(), full)
	}
}
