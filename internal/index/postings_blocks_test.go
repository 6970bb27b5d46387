package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// randPostings draws a posting list with the given gap profile: small
// gaps make dense multi-block lists, large gaps widen the packed doc
// sections, mixed gaps vary the width from block to block.
func randPostings(rng *rand.Rand, n, maxGap int) []Posting {
	ps := make([]Posting, n)
	doc := int32(0)
	for i := range ps {
		doc += int32(1 + rng.Intn(maxGap))
		p := Posting{Doc: doc, TF: int32(1 + rng.Intn(7))}
		pos := int32(0)
		p.Pos = make([]int32, p.TF)
		for j := range p.Pos {
			pos += int32(1 + rng.Intn(50))
			p.Pos[j] = pos
		}
		ps[i] = p
	}
	return ps
}

// TestBlockIteratorAgainstLinearScan is the seeded property test of the
// block codec: for randomized lists across gap distributions and block
// sizes, Iterator.Next must
// reproduce the raw postings exactly and Iterator.SkipTo must agree with
// a linear scan for adversarial targets — block boundaries, the exact
// last document of each block, present and absent documents, and targets
// past the end.
func TestBlockIteratorAgainstLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 60; trial++ {
		opts := Options{BlockSize: []int{0, 1, 4, 7, 128}[trial%5]}
		bs := opts.blockSize()
		n := rng.Intn(400) // includes empty and single-block lists
		maxGap := []int{1, 3, 1000, 1 << 18}[rng.Intn(4)]
		ps := randPostings(rng, n, maxGap)
		pl := encodePostings(ps, opts, nil)

		// Full forward decode == raw postings.
		got := pl.decodeAll(bs)
		want := ps
		if len(want) == 0 {
			want = nil
		}
		if !reflect.DeepEqual(got, append([]Posting(nil), want...)) {
			t.Fatalf("trial %d opts %+v: decodeAll diverges (n=%d)", trial, opts, n)
		}

		// Adversarial SkipTo targets.
		targets := []int32{0, 1}
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
			it := newIterator(&pl, bs, true)
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
		it := newIterator(&pl, bs, true)
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
// block's lastDoc is exact, and the list's score-bound summary is exactly
// its largest tf and its shortest document.
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
	for _, term := range ix.Terms() {
		it := ix.Postings(term)
		m := it.ScoreMeta()
		if dict, _ := ix.TermScoreMeta(term); dict != m {
			t.Fatalf("term %q: iterator summary %+v, dictionary summary %+v", term, m, dict)
		}
		var ps []Posting
		for pit := ix.Postings(term); pit.Next(); {
			ps = append(ps, pit.Posting())
		}
		bs := ix.opts.blockSize()
		if want := (len(ps) + bs - 1) / bs; len(it.pl.blocks) != want {
			t.Fatalf("term %q: %d blocks for %d postings, want %d", term, len(it.pl.blocks), len(ps), want)
		}
		for bi, blk := range it.pl.blocks {
			if hi := min((bi+1)*bs, len(ps)); blk.lastDoc != ps[hi-1].Doc {
				t.Fatalf("term %q block %d: lastDoc %d, want %d", term, bi, blk.lastDoc, ps[hi-1].Doc)
			}
		}
		want := TermScoreMeta{MinLen: math.MaxInt32}
		for _, p := range ps {
			want.MaxTF, want.MinLen = max(want.MaxTF, p.TF), min(want.MinLen, int32(ix.DocLen(p.Doc)))
		}
		if m != want {
			t.Fatalf("term %q: summary %+v, its postings imply %+v", term, m, want)
		}
	}
}

// TestIteratorBytesDecodedCharges pins the decode accounting SkipTo's
// savings are measured in: a full walk charges every block byte — all of
// data but the tail pad — (or just the headers and doc+TF sections when
// positions are skipped), while a SkipTo into the last block charges only
// the blocks actually opened.
func TestIteratorBytesDecodedCharges(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	const bs = 16
	ps := randPostings(rng, 160, 5)
	pl := encodePostings(ps, Options{BlockSize: bs}, nil)

	it := newIterator(&pl, bs, true)
	for it.Next() {
	}
	if it.BytesDecoded() != int64(len(pl.data)-tailPad) {
		t.Fatalf("positional full walk decoded %d bytes, data is %d with a %d-byte pad", it.BytesDecoded(), len(pl.data), tailPad)
	}

	it = newIterator(&pl, bs, false)
	for it.Next() {
	}
	full := it.BytesDecoded()
	if full <= 0 || full >= int64(len(pl.data)-tailPad) {
		t.Fatalf("doc+TF walk decoded %d bytes, want within (0, %d)", full, len(pl.data)-tailPad)
	}

	it = newIterator(&pl, bs, false)
	if !it.SkipTo(ps[len(ps)-1].Doc) {
		t.Fatal("SkipTo(last) failed")
	}
	if it.BytesDecoded() >= full/2 {
		t.Fatalf("SkipTo to the last block decoded %d bytes; full walk is %d — blocks were not skipped", it.BytesDecoded(), full)
	}
}

// blockCharge is what opening block b of ps (bs postings per block) costs
// in BytesDecoded, sized here from the postings by the layout rules: two
// width bytes and the doc and TF sections packed at the block's widths,
// plus the positions section when positions are materialized.
func blockCharge(ps []Posting, bs int, withPos bool, b int) int64 {
	block := ps[b*bs : min((b+1)*bs, len(ps))]
	base := int32(-1)
	if b > 0 {
		base = ps[b*bs-1].Doc
	}
	var maxTF int32
	var posBytes int
	for _, p := range block {
		maxTF = max(maxTF, p.TF)
		posBytes += len(binary.AppendUvarint(nil, uint64(len(p.Pos))))
		var prev int32
		for _, pos := range p.Pos {
			posBytes += len(binary.AppendUvarint(nil, uint64(pos-prev)))
			prev = pos
		}
	}
	docW := bits.Len32(uint32(block[len(block)-1].Doc - base - 1))
	tfW := bits.Len32(uint32(maxTF - 1))
	n := len(block)
	charge := 2 + (n*docW+7)/8 + (n*tfW+7)/8
	if withPos {
		charge += posBytes
	}
	return int64(charge)
}

// TestIteratorInterleavings is the seeded property test of the cursor
// step: random interleavings of Next and SkipTo — to a target inside the
// current block, equal to a block's lastDoc, in a later block, or past
// the end — land where a scan of decodeAll's postings lands, with and
// without positions, over several block sizes. Doc, TF, Posting and Positions
// (asked for twice, or not at all) agree with that posting, and
// BytesDecoded is the block-level charge of exactly the blocks landed in.
func TestIteratorInterleavings(t *testing.T) {
	rng := rand.New(rand.NewSource(74))
	for trial := 0; trial < 120; trial++ {
		bs := []int{1, 3, 16, 128}[trial%4]
		ps := randPostings(rng, 1+rng.Intn(600), []int{1, 4, 300, 1 << 20}[rng.Intn(4)])
		pl := encodePostings(ps, Options{BlockSize: bs}, nil)
		all := pl.decodeAll(bs)
		if !reflect.DeepEqual(all, ps) {
			t.Fatalf("trial %d block size %d: decodeAll diverges from the encoded postings", trial, bs)
		}
		n := len(all)
		lastOf := func(b int) int32 { return all[min((b+1)*bs, n)-1].Doc }
		for _, withPos := range []bool{false, true} {
			it := newIterator(&pl, bs, withPos)
			cur := -1 // index in all of the current posting
			landed := map[int]bool{}
			for step := 0; ; step++ {
				var ok bool
				var what string
				want := cur + 1
				if kind := rng.Intn(100); kind < 35 {
					what = "Next"
					ok = it.Next()
				} else {
					b := max(cur, 0) / bs
					var target int32
					switch {
					case kind < 60: // inside the current block, present or not
						target = all[b*bs+rng.Intn(min(bs, n-b*bs))].Doc - int32(rng.Intn(2))
					case kind < 75: // a block's lastDoc, this one or a later one
						target = lastOf(b + rng.Intn((n-1)/bs-b+1))
					case kind < 99: // in a later block (the current one when there is none)
						nb := min(b+1+rng.Intn(3), (n-1)/bs)
						target = all[nb*bs+rng.Intn(min(bs, n-nb*bs))].Doc
					default: // past the end
						target = all[n-1].Doc + 1 + int32(rng.Intn(100))
					}
					what = fmt.Sprintf("SkipTo(%d)", target)
					ok = it.SkipTo(target)
					want = max(cur, 0)
					for want < n && all[want].Doc < target {
						want++
					}
				}
				if ok != (want < n) {
					t.Fatalf("trial %d block size %d withPos %v step %d: %s = %v, want %v", trial, bs, withPos, step, what, ok, want < n)
				}
				if !ok {
					break
				}
				cur = want
				landed[cur/bs] = true
				p := all[cur]
				if !withPos {
					p.Pos = nil
				}
				if it.Doc() != p.Doc || it.TF() != p.TF {
					t.Fatalf("trial %d block size %d withPos %v step %d: %s landed on doc %d tf %d, want %+v", trial, bs, withPos, step, what, it.Doc(), it.TF(), p)
				}
				for range rng.Intn(3) {
					if got := it.Posting(); !reflect.DeepEqual(got, p) {
						t.Fatalf("trial %d block size %d withPos %v step %d: %s gave %+v, want %+v", trial, bs, withPos, step, what, got, p)
					}
				}
			}
			if it.Next() || it.SkipTo(0) {
				t.Fatalf("trial %d block size %d withPos %v: an exhausted iterator moved", trial, bs, withPos)
			}
			var charge int64
			for b := range landed {
				charge += blockCharge(all, bs, withPos, b)
			}
			if it.BytesDecoded() != charge {
				t.Fatalf("trial %d block size %d withPos %v: BytesDecoded %d, the %d blocks landed in charge %d", trial, bs, withPos, it.BytesDecoded(), len(landed), charge)
			}
		}
	}
}

// FuzzPacked: values packed at any width 0–32 read back through packedAt,
// wherever in data the section starts, with the section followed only by
// a tail pad's worth of bytes — so the last value's 8-byte load ends at
// the end of data — whatever those bytes hold. Values are drawn from raw
// four bytes at a time and masked to the width.
func FuzzPacked(f *testing.F) {
	seed := make([]byte, 0, 96)
	for v := uint32(1); len(seed) < cap(seed); v = v*2654435761 + 1 {
		seed = binary.LittleEndian.AppendUint32(seed, v)
	}
	ones := bytes.Repeat([]byte{0xff}, 20)
	for w := uint8(0); w <= 32; w++ {
		f.Add(seed, w, w%8, uint8(0))
		f.Add(seed[:4*int(w%6)], w, uint8(1), uint8(0xff))
		f.Add(ones, w, uint8(7), uint8(0xa5))
	}
	f.Fuzz(func(t *testing.T, raw []byte, width, lead, fill uint8) {
		w := uint(width % 33)
		vals := make([]uint32, len(raw)/4)
		for i := range vals {
			vals[i] = uint32(uint64(binary.LittleEndian.Uint32(raw[4*i:])) & (1<<w - 1))
		}
		data := bytes.Repeat([]byte{^fill}, int(lead%8))
		start := len(data)
		data = appendPacked(data, vals, w)
		if got := len(data) - start; got != packedLen(len(vals), w) {
			t.Fatalf("%d values at %d bits packed into %d bytes, packedLen says %d", len(vals), w, got, packedLen(len(vals), w))
		}
		data = append(data, bytes.Repeat([]byte{fill}, tailPad)...)
		for i, v := range vals {
			if got := packedAt(data[start:], i, w); got != v {
				t.Fatalf("value %d of %d at %d bits: read %#x, packed %#x", i, len(vals), w, got, v)
			}
		}
	})
}

// FuzzGroupVarint: any gap list survives the block encoder, validate and
// a Next and a SkipTo walk, whatever the gaps' bit lengths and however
// the block size cuts them — in particular when the last block's packed
// values end at the tail pad, the end of data. The target keeps the name
// and the seeds of the group-varint codec the packed doc section
// replaced: values are drawn from raw four bytes at a time, shifted right
// by their own low five bits so every docW occurs, and a doc that would
// pass math.MaxInt32 ends the list. lead picks the block size and trail
// the TF width, 0–31 bits.
func FuzzGroupVarint(f *testing.F) {
	seed := make([]byte, 0, 96)
	for v := uint32(1); len(seed) < cap(seed); v = v*2654435761 + 1 {
		seed = binary.LittleEndian.AppendUint32(seed, v)
	}
	// Three 31-bit gaps and a 1-bit one: the widest docs a block holds.
	widest := []byte{0xe0, 0xff, 0xff, 0xff, 0xe0, 0xff, 0xff, 0xff, 0xe0, 0xff, 0xff, 0xff, 1, 0, 0, 0}
	for trail := uint8(0); trail <= 18; trail++ {
		f.Add(seed, trail%4, trail)
		f.Add(seed[:4*int(trail%6)], uint8(1), trail)
		f.Add(widest, uint8(0), trail)
	}
	f.Fuzz(func(t *testing.T, raw []byte, lead, trail uint8) {
		var ps []Posting
		doc := int64(-1)
		for i := 0; i+4 <= len(raw); i += 4 {
			v := binary.LittleEndian.Uint32(raw[i:])
			if doc += 1 + int64(v>>(v&31)); doc > math.MaxInt32 {
				break
			}
			tf := max(1, int32(v>>1>>(31-trail%32)))
			ps = append(ps, Posting{Doc: int32(doc), TF: tf})
		}
		if len(ps) == 0 {
			return
		}
		bs := 1 + int(lead%8)
		pl := encodePostings(ps, Options{BlockSize: bs}, nil)
		var got []Posting
		if err := pl.validate(bs, int(ps[len(ps)-1].Doc)+1, nil, func(p Posting) { got = append(got, p) }); err != nil {
			t.Fatalf("%d postings, block size %d: validate refused the encoder's own list: %v", len(ps), bs, err)
		}
		same := func(a, b Posting) bool { return a.Doc == b.Doc && a.TF == b.TF }
		if !slices.EqualFunc(got, ps, same) {
			t.Fatalf("block size %d: validate decoded %v, encoded %v", bs, got, ps)
		}
		it := newIterator(&pl, bs, false)
		for i, p := range ps {
			if !it.Next() || !same(it.Posting(), p) {
				t.Fatalf("block size %d: Next walk diverges at posting %d of %d", bs, i, len(ps))
			}
		}
		if it.Next() {
			t.Fatalf("block size %d: Next walk runs past %d postings", bs, len(ps))
		}
		it = newIterator(&pl, bs, false)
		for i, p := range ps {
			if !it.SkipTo(p.Doc) || !same(it.Posting(), p) {
				t.Fatalf("block size %d: SkipTo(%d) misses posting %d of %d", bs, p.Doc, i, len(ps))
			}
		}
	})
}

// FuzzBlockDecode: a well-formed list whose block bytes are overwritten
// behind its unchanged block table either fails validate, or reads back
// through the iterator — a Next walk and a SkipTo walk, with and without
// positions — exactly as validate's own walk decoded it. Never a panic,
// never a posting validate did not vouch for.
func FuzzBlockDecode(f *testing.F) {
	for shape := range uint8(16) {
		f.Add(shape, uint16(0), []byte{})
		f.Add(shape, uint16(shape)*7, []byte{0x21})
		f.Add(shape, uint16(2), []byte{0xff, 0xff, 0xff, 0xff})
		f.Add(shape, uint16(1), []byte{0x1f})
		f.Add(shape, uint16(0xffff), []byte{1})
	}
	f.Fuzz(func(t *testing.T, shape uint8, at uint16, patch []byte) {
		rng := rand.New(rand.NewSource(int64(shape)))
		bs := []int{1, 3, 16, 128}[shape%4]
		ps := randPostings(rng, 1+rng.Intn(300), []int{1, 4, 300, 1 << 20}[shape/4%4])
		pl := encodePostings(ps, Options{BlockSize: bs}, nil)
		copy(pl.data[int(at)%len(pl.data):], patch)
		var want []Posting
		if err := pl.validate(bs, int(ps[len(ps)-1].Doc)+1, nil, func(p Posting) { want = append(want, p) }); err != nil {
			return
		}
		if len(want) != len(ps) {
			t.Fatalf("validate accepted %d postings of %d", len(want), len(ps))
		}
		same := func(got, want Posting, withPos bool) bool {
			return got.Doc == want.Doc && got.TF == want.TF && (!withPos || slices.Equal(got.Pos, want.Pos))
		}
		for _, withPos := range []bool{false, true} {
			it := newIterator(&pl, bs, withPos)
			for i := range want {
				if !it.Next() || !same(it.Posting(), want[i], withPos) {
					t.Fatalf("withPos %v: Next walk diverges from validate at posting %d of %d", withPos, i, len(want))
				}
			}
			if it.Next() {
				t.Fatalf("withPos %v: Next walk runs past validate's %d postings", withPos, len(want))
			}
			it, cur := newIterator(&pl, bs, withPos), 0
			for i := rng.Intn(3); i < len(want); i += 1 + rng.Intn(2*bs) {
				target := want[i].Doc - int32(rng.Intn(2))
				for want[cur].Doc < target {
					cur++
				}
				if !it.SkipTo(target) || !same(it.Posting(), want[cur], withPos) {
					t.Fatalf("withPos %v: SkipTo(%d) diverges from validate's posting %d", withPos, target, cur)
				}
			}
		}
	})
}
