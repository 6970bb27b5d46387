// Package index implements the distributed indexing module of Section 4:
// an inverted index (lexicon + posting lists) with positional postings,
// block-compressed posting lists with a skip table and a resident
// per-term score-bound summary for dynamic pruning, plus the index
// construction strategies the paper surveys —
// sort-based (Witten et al.), single-pass with spill runs (Lester et
// al.), map-reduce (Dean & Ghemawat), and pipelined (Melink et al.) —
// and index merging with document-ID remapping.
package index

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// Posting is one term occurrence record: the internal document ordinal,
// the term frequency, and the positions of the occurrences.
type Posting struct {
	Doc int32
	TF  int32
	Pos []int32 // nil when read by an iterator that skips positions
}

// defaultBlockSize is the posting count per skip-aligned block when
// Options.BlockSize is zero.
const defaultBlockSize = 128

// Options configures index layout. Every index is block-compressed and
// positional; only the block size varies.
type Options struct {
	BlockSize int // postings per skip-aligned block; 0 = 128
}

// DefaultOptions returns the production layout: 128 postings per block.
func DefaultOptions() Options {
	return Options{BlockSize: defaultBlockSize}
}

func (o Options) blockSize() int {
	if o.BlockSize > 0 {
		return o.BlockSize
	}
	return defaultBlockSize
}

// blockMeta is the per-block skip record: enough to jump over the block
// without decoding it. A block's first gap is encoded relative to the
// previous block's lastDoc, so any block can be decoded independently
// given the record of its predecessor.
type blockMeta struct {
	lastDoc int32  // last document ordinal in the block
	offset  uint32 // byte offset of the block's first section in data
}

// postingList is one term's block-encoded postings, its skip table and
// its score-bound summary, kept resident so evaluator and broker can
// bound the list's score without touching a posting byte. Only count,
// data and blocks are persisted: cf and meta are what the postings and
// the document table imply, derived again when a file is read.
type postingList struct {
	count  int
	cf     int64 // collection frequency: total TF over all docs
	data   []byte
	blocks []blockMeta
	meta   TermScoreMeta
}

// tailPad is the run of zero bytes that ends every non-empty list's data:
// packedAt loads 8 bytes from a packed value's first byte, and the pad
// keeps that load inside data for the last value of the last block.
const tailPad = 8

// encodePostings serializes postings (which must be sorted by Doc,
// strictly increasing, with TF >= 1) into skip-aligned blocks of
// opts.BlockSize. A block is two width bytes docW and tfW, then each
// posting's doc − base − 1 packed in docW bits (base is the previous
// block's lastDoc, −1 for block 0), then each tf − 1 packed in tfW bits,
// each packed section rounded up to a whole byte, then the positions,
// delta-varint encoded, which the iterator can skip wholesale. Any posting
// of a block is one word load away. docs is the document table the
// summary's MinLen is taken from; nil records MinLen 0, which makes every
// bound fall back to the BM25 norm floor (1-b) — looser pruning, never
// unsafe.
func encodePostings(ps []Posting, opts Options, docs []docEntry) postingList {
	var pl postingList
	pl.count = len(ps)
	if len(ps) == 0 {
		return pl
	}
	if docs != nil {
		pl.meta.MinLen = math.MaxInt32
	}
	bs := opts.blockSize()
	prevDoc := int32(-1)
	most := min(bs, len(ps))
	vals := make([]uint32, 2*most) // one block's values to pack: docs, then TFs
	for start := 0; start < len(ps); start += bs {
		block := ps[start:min(start+bs, len(ps))]
		meta := blockMeta{offset: uint32(len(pl.data))}
		base := prevDoc
		maxTF := int32(0)
		gaps, tfs := vals[:len(block)], vals[most:most+len(block)]
		for i, p := range block {
			if p.Doc <= prevDoc {
				panic(fmt.Sprintf("index: postings not strictly increasing: %d after %d", p.Doc, prevDoc))
			}
			if p.TF < 1 {
				panic(fmt.Sprintf("index: doc %d has term frequency %d", p.Doc, p.TF))
			}
			gaps[i], tfs[i] = uint32(p.Doc-base-1), uint32(p.TF-1)
			prevDoc = p.Doc
			maxTF = max(maxTF, p.TF)
			if docs != nil {
				pl.meta.MinLen = min(pl.meta.MinLen, int32(docs[p.Doc].length))
			}
			pl.cf += int64(p.TF)
		}
		pl.meta.MaxTF = max(pl.meta.MaxTF, maxTF)
		meta.lastDoc = prevDoc
		docW, tfW := uint(bits.Len32(uint32(prevDoc-base-1))), uint(bits.Len32(uint32(maxTF-1)))
		pl.data = append(pl.data, byte(docW), byte(tfW))
		pl.data = appendPacked(appendPacked(pl.data, gaps, docW), tfs, tfW)
		for _, p := range block {
			pl.data = binary.AppendUvarint(pl.data, uint64(len(p.Pos)))
			var prevPos int32
			for _, pos := range p.Pos {
				pl.data = binary.AppendUvarint(pl.data, uint64(pos-prevPos))
				prevPos = pos
			}
		}
		pl.blocks = append(pl.blocks, meta)
	}
	pl.data = append(pl.data, make([]byte, tailPad)...)
	return pl
}

// appendPacked appends vals at w bits each, little-endian bit order, the
// section rounded up to a whole byte.
func appendPacked(dst []byte, vals []uint32, w uint) []byte {
	var acc uint64
	var nb uint
	for _, v := range vals {
		acc |= uint64(v) << nb
		for nb += w; nb >= 8; nb -= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
		}
	}
	if nb > 0 {
		dst = append(dst, byte(acc))
	}
	return dst
}

// packedLen is the byte length of n values packed at w bits each.
func packedLen(n int, w uint) int { return (n*int(w) + 7) >> 3 }

// packedAt returns value i of the w-bit packed section that sec begins
// with: one little-endian 8-byte load from the value's first byte, a
// shift and a mask (w <= 32, so the value never spans past the word; the
// &63 only spares the compiler's guard for shifts of 64 bits and more).
func packedAt(sec []byte, i int, w uint) uint32 {
	b := uint(i) * w
	x := b >> 3
	return uint32(binary.LittleEndian.Uint64(sec[x:x+8:x+8]) >> (b & 7) & (1<<(w&63) - 1))
}

// Iterator walks a posting list in document order, one block at a time.
// Use Next to advance one posting and SkipTo to jump forward via the skip
// table. Opening a block reads its two width bytes and nothing else: Doc
// and TF unpack the current posting in place, SkipTo searches the packed
// docs, and Positions decodes the current posting's positions only when
// asked, so nothing is decoded that the cursor does not read.
type Iterator struct {
	pl      *postingList
	withPos bool
	bs      int     // postings per block
	bi      int     // index of the open block; -1 before any, len(blocks) once exhausted
	n       int     // postings in the open block; 0 before any and once exhausted
	j       int     // the current posting within the block, valid while j < n
	low     int32   // the previous block's lastDoc + 1 (0 for block 0): doc j is low + its packed value
	docs    []byte  // data from the open block's packed docs on
	tfs     []byte  // data from its packed TFs on
	docW    uint    // bits per packed doc
	tfW     uint    // bits per packed TF
	posOff  int     // byte cursor into the positions section
	posIdx  int     // posting ordinal within the block whose positions begin at posOff
	pos     []int32 // positions of posting posIdx-1, once Positions decoded them
	bytes   int64   // encoded bytes charged so far
}

// reset re-initializes *it over pl, a list of bs postings per block.
func (it *Iterator) reset(pl *postingList, bs int, withPos bool) {
	*it = Iterator{pl: pl, withPos: withPos, bs: bs, bi: -1}
}

// newIterator starts an iterator over pl.
func newIterator(pl *postingList, bs int, withPos bool) *Iterator {
	it := &Iterator{}
	it.reset(pl, bs, withPos)
	return it
}

// openBlock positions the cursor on block b's first posting: it reads the
// block's width bytes and records where its sections begin.
func (it *Iterator) openBlock(b int) {
	pl := it.pl
	off := int(pl.blocks[b].offset)
	n := min(it.bs, pl.count-b*it.bs)
	it.low = 0
	if b > 0 {
		it.low = pl.blocks[b-1].lastDoc + 1
	}
	it.docW, it.tfW = uint(pl.data[off]), uint(pl.data[off+1])
	tfOff := off + 2 + packedLen(n, it.docW)
	it.docs, it.tfs = pl.data[off+2:], pl.data[tfOff:]
	it.bi, it.n, it.j = b, n, 0
	it.posOff, it.posIdx = tfOff+packedLen(n, it.tfW), 0
	// Charge the block's header and doc and TF sections, plus its
	// positions section only when positions are materialized.
	end := it.posOff
	if it.withPos {
		end = len(pl.data) - tailPad
		if b+1 < len(pl.blocks) {
			end = int(pl.blocks[b+1].offset)
		}
	}
	it.bytes += int64(end - off)
}

// Positions returns the current posting's positions (nil when the
// iterator does not materialize them), decoding them on the first call:
// the positions section is walked forward from the last posting whose
// positions were decoded, so a posting nobody asks about costs a varint
// walk and no allocation. Valid only after Next or SkipTo returned true.
func (it *Iterator) Positions() []int32 {
	if !it.withPos {
		return nil
	}
	j := it.j
	if it.posIdx > j { // j's positions are the ones decoded last
		return it.pos
	}
	data := it.pl.data
	for it.posIdx < j {
		np, w := binary.Uvarint(data[it.posOff:])
		it.posOff += w
		for k := uint64(0); k < np; k++ {
			_, w := binary.Uvarint(data[it.posOff:])
			it.posOff += w
		}
		it.posIdx++
	}
	np, w := binary.Uvarint(data[it.posOff:])
	it.posOff += w
	out := make([]int32, np)
	var prev int32
	for k := range out {
		d, w := binary.Uvarint(data[it.posOff:])
		it.posOff += w
		prev += int32(d)
		out[k] = prev
	}
	it.posIdx, it.pos = j+1, out
	return out
}

// Next advances to the next posting; it returns false at the end. Inside
// a block it is a bounds check and an increment.
func (it *Iterator) Next() bool {
	if it.j+1 < it.n {
		it.j++
		return true
	}
	return it.nextBlock()
}

// nextBlock opens the block after the current one, or exhausts the
// iterator when there is none.
func (it *Iterator) nextBlock() bool {
	b := it.bi + 1
	if b >= len(it.pl.blocks) {
		it.exhaust()
		return false
	}
	it.openBlock(b)
	return true
}

// exhaust leaves the iterator past its last posting.
func (it *Iterator) exhaust() { it.bi, it.n, it.j = len(it.pl.blocks), 0, 0 }

// Doc returns the current posting's document ordinal. Valid only after
// Next or SkipTo returned true.
func (it *Iterator) Doc() int32 { return it.low + int32(packedAt(it.docs, it.j, it.docW)) }

// TF returns the current posting's term frequency. Valid only after Next
// or SkipTo returned true.
func (it *Iterator) TF() int32 { return 1 + int32(packedAt(it.tfs, it.j, it.tfW)) }

// Posting returns the current posting, its positions included when the
// iterator materializes them. Valid only after Next or SkipTo returned
// true.
func (it *Iterator) Posting() Posting {
	return Posting{Doc: it.Doc(), TF: it.TF(), Pos: it.Positions()}
}

// Count returns the total number of postings in the underlying list.
func (it *Iterator) Count() int { return it.pl.count }

// SkipTo advances to the first posting with Doc >= target, using the
// skip table to jump over (and never open) non-containing blocks.
// It returns false if no such posting exists. A target inside the open
// block (its last document is the block's lastDoc) is searched for among
// the block's packed docs; otherwise the blocks not yet visited are
// binary-searched for the first whose lastDoc reaches target, and that
// one is opened and searched the same way.
func (it *Iterator) SkipTo(target int32) bool {
	blocks := it.pl.blocks
	if it.j < it.n && target <= blocks[it.bi].lastDoc {
		it.j = it.search(it.j, target)
		return true
	}
	lo, hi := min(it.bi+1, len(blocks)), len(blocks)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if blocks[m].lastDoc < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo == len(blocks) {
		it.exhaust()
		return false
	}
	it.openBlock(lo)
	it.j = it.search(0, target)
	return true
}

// search returns the first posting i >= lo of the open block whose doc
// reaches target. The block's last doc is its lastDoc, which the caller
// has checked reaches target, so the answer is below n. It gallops —
// probing lo, lo+1, lo+3, lo+7, … — before it bisects, because most skips
// land a posting or two ahead: a pruned cursor is probed at a candidate
// from a rarer list, which its own denser list reaches soon.
func (it *Iterator) search(lo int, target int32) int {
	hi := it.n - 1
	docs, w, low := it.docs, it.docW, it.low
	for start, step := lo, 1; lo < hi; step *= 2 {
		p := min(start+step-1, hi)
		if low+int32(packedAt(docs, p, w)) >= target {
			hi = p
			break
		}
		lo = p + 1
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if low+int32(packedAt(docs, m, w)) < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// BytesDecoded returns the encoded bytes of the blocks this iterator has
// opened so far — the per-query cost unit dynamic pruning exists to
// reduce.
func (it *Iterator) BytesDecoded() int64 { return it.bytes }

// validate walks every block of pl, a list of bs postings per block over
// numDocs documents, the way the iterator reads it, and returns an error
// for anything the iterator would read out of bounds or read wrong: a
// missing tail pad, a width over 32 doc bits or 31 TF bits, a section
// that runs past its block, docs that are not strictly increasing inside
// [0, numDocs) or whose last is not the block's lastDoc, a TF past
// MaxInt32, positions that do not parse to the block's end. The block
// table itself (counts, ascending offsets and last docs) is the caller's
// to check. On success pl.cf and pl.meta are what the postings imply:
// the sum and the largest of their TFs, and the shortest of their
// documents in docs, the table of those numDocs documents (nil records
// MinLen 0, as encodePostings does). emit, when not nil, receives each
// posting with its positions.
func (pl *postingList) validate(bs, numDocs int, docs []docEntry, emit func(Posting)) error {
	data := pl.data
	if pl.count == 0 {
		if len(data) != 0 {
			return fmt.Errorf("%d bytes of data for no postings", len(data))
		}
		return nil
	}
	end := len(data) - tailPad
	if end < 0 || slices.ContainsFunc(data[end:], func(c byte) bool { return c != 0 }) {
		return errors.New("data does not end with the zero tail pad")
	}
	if pl.blocks[0].offset != 0 {
		return fmt.Errorf("block 0 starts at byte %d", pl.blocks[0].offset)
	}
	prev := int64(-1)
	pl.cf, pl.meta = 0, TermScoreMeta{}
	if docs != nil {
		pl.meta.MinLen = math.MaxInt32
	}
	for b, m := range pl.blocks {
		off, blockEnd := int(m.offset), end
		if b+1 < len(pl.blocks) {
			blockEnd = int(pl.blocks[b+1].offset)
		}
		if off+2 > blockEnd {
			return fmt.Errorf("block %d: header runs past the block", b)
		}
		docW, tfW := uint(data[off]), uint(data[off+1])
		if docW > 32 || tfW > 31 {
			return fmt.Errorf("block %d: widths %d/%d bits", b, docW, tfW)
		}
		n := min(bs, pl.count-b*bs)
		docOff := off + 2
		tfOff := docOff + packedLen(n, docW)
		p := tfOff + packedLen(n, tfW)
		if p > blockEnd {
			return fmt.Errorf("block %d: packed sections run past the block", b)
		}
		base := prev
		for i := range n {
			d := base + 1 + int64(packedAt(data[docOff:], i, docW))
			if d <= prev || d >= int64(numDocs) {
				return fmt.Errorf("block %d: doc %d after %d over %d documents", b, d, prev, numDocs)
			}
			prev = d
			tf := 1 + int64(packedAt(data[tfOff:], i, tfW))
			if tf > math.MaxInt32 {
				return fmt.Errorf("block %d: term frequency %d", b, tf)
			}
			pl.cf += tf
			pl.meta.MaxTF = max(pl.meta.MaxTF, int32(tf))
			if docs != nil {
				pl.meta.MinLen = min(pl.meta.MinLen, int32(docs[d].length))
			}
			np, w := binary.Uvarint(data[p:blockEnd])
			if w <= 0 || np > uint64(blockEnd-p-w) {
				return fmt.Errorf("block %d: position count does not fit the block", b)
			}
			p += w
			var pos []int32
			if emit != nil {
				pos = make([]int32, 0, np)
			}
			var at int64
			for range np {
				delta, w := binary.Uvarint(data[p:blockEnd])
				if w <= 0 || delta > math.MaxInt32 || at+int64(delta) > math.MaxInt32 {
					return fmt.Errorf("block %d: positions do not fit the block", b)
				}
				p += w
				at += int64(delta)
				if emit != nil {
					pos = append(pos, int32(at))
				}
			}
			if emit != nil {
				emit(Posting{Doc: int32(d), TF: int32(tf), Pos: pos})
			}
		}
		if prev != int64(m.lastDoc) {
			return fmt.Errorf("block %d: last doc %d, the table says %d", b, prev, m.lastDoc)
		}
		if p != blockEnd {
			return fmt.Errorf("block %d: positions end at byte %d, the block at %d", b, p, blockEnd)
		}
	}
	return nil
}

// ScoreMeta returns the score-bound summary of the underlying list, the
// same one Index.TermScoreMeta reads from the dictionary.
func (it *Iterator) ScoreMeta() TermScoreMeta { return it.pl.meta }

// decodeAll materializes a posting list of bs postings per block; used
// by Equal.
func (pl *postingList) decodeAll(bs int) []Posting {
	out := make([]Posting, 0, pl.count)
	it := newIterator(pl, bs, true)
	for it.Next() {
		out = append(out, it.Posting())
	}
	return out
}
