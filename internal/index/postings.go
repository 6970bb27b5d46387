// Package index implements the distributed indexing module of Section 4:
// an inverted index (lexicon + posting lists) with positional postings,
// block-compressed posting lists with a skip table and a resident
// per-term score bound for dynamic pruning, plus the index construction
// strategies the paper surveys —
// sort-based (Witten et al.), single-pass with spill runs (Lester et
// al.), map-reduce (Dean & Ghemawat), and pipelined (Melink et al.) —
// and index merging with document-ID remapping.
package index

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Posting is one term occurrence record: the internal document ordinal,
// the term frequency, and the positions of the occurrences.
type Posting struct {
	Doc int32
	TF  int32
	Pos []int32 // nil when read by an iterator that skips positions
}

// Default BM25 parameters. A list's saturation bound
// (TermScoreMeta.SatBound) is computed against these at encode time;
// rank.NewScorer uses the same constants so the bound applies to default
// scorers.
const (
	DefaultBM25K1 = 1.2
	DefaultBM25B  = 0.75
)

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
// its score-bound summary, kept resident and persisted so evaluator and
// broker can bound the list's score without touching a posting byte.
type postingList struct {
	count  int
	cf     int64 // collection frequency: total TF over all docs
	data   []byte
	blocks []blockMeta
	meta   TermScoreMeta
}

// encodeStats supplies the document statistics encodePostings bakes into
// the score-bound summary. The zero value means "lengths unknown": minLen
// is recorded as 0, which makes every bound fall back to the BM25 norm
// floor (1-b) — looser pruning, never unsafe.
type encodeStats struct {
	docLen func(doc int32) int32
	avgLen float64
}

// lengthsOf builds encodeStats from a completed document table.
func lengthsOf(docs []docEntry, total int64) encodeStats {
	avg := 0.0
	if len(docs) > 0 {
		avg = float64(total) / float64(len(docs))
	}
	return encodeStats{
		docLen: func(d int32) int32 { return int32(docs[d].length) },
		avgLen: avg,
	}
}

// bm25Sat is the document-length-aware saturation bound of the default
// ranker: an upper bound on tf*(k1+1)/(tf+k1*norm(dl)) over every
// posting in a block with term frequency <= maxTF and document length
// >= minLen. It mirrors rank.Scorer.Term (including the max(avg,1)
// guard).
func bm25Sat(maxTF, minLen int32, avg float64) float64 {
	norm := 1 - DefaultBM25B + DefaultBM25B*float64(minLen)/math.Max(avg, 1)
	tf := float64(maxTF)
	return tf * (DefaultBM25K1 + 1) / (tf + DefaultBM25K1*norm)
}

// encodePostings serializes postings (which must be sorted by Doc,
// strictly increasing) into skip-aligned blocks of opts.BlockSize. Within
// a block doc-gaps are group-varint encoded, term frequencies are varint
// encoded, and positions are delta-varint encoded in a trailing section
// the iterator can skip wholesale. st supplies document lengths for the
// score-bound summary.
func encodePostings(ps []Posting, opts Options, st encodeStats) postingList {
	var pl postingList
	pl.count = len(ps)
	pl.meta.QuantAvg = st.avgLen
	if len(ps) == 0 {
		return pl
	}
	pl.meta.MinLen = math.MaxInt32
	bs := opts.blockSize()
	var prevDoc int32
	gaps := make([]uint32, 0, bs)
	for start := 0; start < len(ps); start += bs {
		end := start + bs
		if end > len(ps) {
			end = len(ps)
		}
		block := ps[start:end]
		meta := blockMeta{offset: uint32(len(pl.data))}
		maxTF, minLen := int32(0), int32(math.MaxInt32)
		// Doc section.
		gaps = gaps[:0]
		for i, p := range block {
			if (start > 0 || i > 0) && p.Doc <= prevDoc {
				panic(fmt.Sprintf("index: postings not strictly increasing: %d after %d", p.Doc, prevDoc))
			}
			gaps = append(gaps, uint32(p.Doc-prevDoc))
			prevDoc = p.Doc
			maxTF = max(maxTF, p.TF)
			if st.docLen != nil {
				minLen = min(minLen, st.docLen(p.Doc))
			}
			pl.cf += int64(p.TF)
		}
		if st.docLen == nil {
			minLen = 0
		}
		// SatBound is taken block by block: a block's largest tf at its
		// shortest document is tighter than the list's at the list's.
		pl.meta.MaxTF = max(pl.meta.MaxTF, maxTF)
		pl.meta.MinLen = min(pl.meta.MinLen, minLen)
		pl.meta.SatBound = max(pl.meta.SatBound, bm25Sat(maxTF, minLen, st.avgLen))
		meta.lastDoc = prevDoc
		pl.data = appendGroupVarint(pl.data, gaps)
		// TF section.
		for _, p := range block {
			pl.data = appendUvarint(pl.data, uint64(p.TF))
		}
		// Positions section.
		for _, p := range block {
			pl.data = appendUvarint(pl.data, uint64(len(p.Pos)))
			var prevPos int32
			for _, pos := range p.Pos {
				pl.data = appendUvarint(pl.data, uint64(pos-prevPos))
				prevPos = pos
			}
		}
		pl.blocks = append(pl.blocks, meta)
	}
	return pl
}

func appendUvarint(b []byte, v uint64) []byte {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	return append(b, tmp[:n]...)
}

// appendGroupVarint appends gap values in groups of four sharing one tag
// byte (two bits per value = encoded byte count minus one), followed by
// the values' little-endian bytes; a tail of fewer than four gaps is
// encoded as plain uvarints.
func appendGroupVarint(dst []byte, vals []uint32) []byte {
	i := 0
	for ; i+4 <= len(vals); i += 4 {
		tagPos := len(dst)
		dst = append(dst, 0)
		var tag byte
		for j := 0; j < 4; j++ {
			v := vals[i+j]
			n := byteLen32(v)
			tag |= byte(n-1) << (2 * j)
			for k := 0; k < n; k++ {
				dst = append(dst, byte(v))
				v >>= 8
			}
		}
		dst[tagPos] = tag
	}
	for ; i < len(vals); i++ {
		dst = appendUvarint(dst, uint64(vals[i]))
	}
	return dst
}

func byteLen32(v uint32) int {
	switch {
	case v < 1<<8:
		return 1
	case v < 1<<16:
		return 2
	case v < 1<<24:
		return 3
	default:
		return 4
	}
}

// gvMask keeps the low 1–4 bytes of a little-endian word, by tag value.
var gvMask = [4]uint32{0xff, 0xffff, 0xffffff, 0xffffffff}

// decodeGroupVarint decodes n values written by appendGroupVarint from
// data starting at pos into out[:n], returning the next byte position.
// While a whole group fits in what is left of data (a tag byte plus at
// most 16 value bytes), each value is one 4-byte word load masked to its
// length; the last groups fall back to the byte loop.
func decodeGroupVarint(data []byte, pos, n int, out []uint32) int {
	i := 0
	for ; i+4 <= n && pos+17 <= len(data); i += 4 {
		tag := uint(data[pos])
		pos++
		for j := 0; j < 4; j++ {
			l := tag & 3
			out[i+j] = binary.LittleEndian.Uint32(data[pos:]) & gvMask[l]
			pos += int(l) + 1
			tag >>= 2
		}
	}
	for ; i+4 <= n; i += 4 {
		tag := data[pos]
		pos++
		for j := 0; j < 4; j++ {
			l := int(tag>>(2*j))&3 + 1
			var v uint32
			for k := 0; k < l; k++ {
				v |= uint32(data[pos]) << (8 * k)
				pos++
			}
			out[i+j] = v
		}
	}
	for ; i < n; i++ {
		v, w := binary.Uvarint(data[pos:])
		pos += w
		out[i] = uint32(v)
	}
	return pos
}

// Iterator walks a posting list in document order, decoding one block at
// a time. Use Next to advance one posting and SkipTo to jump forward via
// the skip table; blocks the cursor jumps over are never decoded. Doc and
// TF read the current posting in place; Positions decodes its positions
// only when asked.
type Iterator struct {
	pl      *postingList
	withPos bool
	bs      int // postings per block
	bi      int // index of the decoded block; -1 before any decode, len(blocks) once exhausted
	n       int // postings in the decoded block; 0 before any decode and once exhausted
	j       int // the current posting within the block, valid while j < n
	docs    []int32
	tfs     []int32
	gaps    []uint32 // group-varint decode scratch
	posOff  int      // byte cursor into the positions section
	posIdx  int      // posting ordinal within the block whose positions begin at posOff
	pos     []int32  // positions of posting posIdx-1, once Positions decoded them
	bytes   int64    // encoded bytes decoded so far
}

// reset re-initializes *it over pl, a list of bs postings per block,
// preserving its decode buffers so pooled iterators stay allocation-free
// across queries.
func (it *Iterator) reset(pl *postingList, bs int, withPos bool) {
	docs, tfs, gaps := it.docs, it.tfs, it.gaps
	*it = Iterator{
		pl: pl, withPos: withPos, bs: bs, bi: -1,
		docs: docs, tfs: tfs, gaps: gaps,
	}
}

// newIterator starts an iterator over pl.
func newIterator(pl *postingList, bs int, withPos bool) *Iterator {
	it := &Iterator{}
	it.reset(pl, bs, withPos)
	return it
}

// decodeBlock materializes block b's doc and TF arrays into the
// iterator's scratch buffers. The positions section is located but not
// decoded; positions() walks it lazily per posting.
func (it *Iterator) decodeBlock(b int) {
	pl := it.pl
	m := &pl.blocks[b]
	start := b * it.bs
	n := it.bs
	if start+n > pl.count {
		n = pl.count - start
	}
	if cap(it.docs) < n {
		it.docs = make([]int32, n)
		it.tfs = make([]int32, n)
		it.gaps = make([]uint32, n)
	}
	docs, tfs := it.docs[:n], it.tfs[:n]
	pos := int(m.offset)
	var base int32
	if b > 0 {
		base = pl.blocks[b-1].lastDoc
	}
	gaps := it.gaps[:n]
	pos = decodeGroupVarint(pl.data, pos, n, gaps)
	d := base
	for i, g := range gaps {
		d += int32(g)
		docs[i] = d
	}
	for i := range tfs {
		if c := pl.data[pos]; c < 0x80 { // a one-byte uvarint: nearly every tf
			tfs[i] = int32(c)
			pos++
			continue
		}
		v, w := binary.Uvarint(pl.data[pos:])
		pos += w
		tfs[i] = int32(v)
	}
	it.bi, it.n, it.j = b, n, 0
	it.posOff, it.posIdx = pos, 0
	// Charge the bytes this decode actually touched: doc+TF sections, plus
	// the positions section only when positions are materialized.
	if it.withPos {
		end := len(pl.data)
		if b+1 < len(pl.blocks) {
			end = int(pl.blocks[b+1].offset)
		}
		it.bytes += int64(end - int(m.offset))
	} else {
		it.bytes += int64(pos - int(m.offset))
	}
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
// a decoded block it is a bounds check and an increment.
func (it *Iterator) Next() bool {
	if it.j+1 < it.n {
		it.j++
		return true
	}
	return it.nextBlock()
}

// nextBlock decodes the block after the current one, or exhausts the
// iterator when there is none.
func (it *Iterator) nextBlock() bool {
	b := it.bi + 1
	if b >= len(it.pl.blocks) {
		it.exhaust()
		return false
	}
	it.decodeBlock(b)
	return true
}

// exhaust leaves the iterator past its last posting.
func (it *Iterator) exhaust() { it.bi, it.n, it.j = len(it.pl.blocks), 0, 0 }

// Doc returns the current posting's document ordinal. Valid only after
// Next or SkipTo returned true.
func (it *Iterator) Doc() int32 { return it.docs[it.j] }

// TF returns the current posting's term frequency. Valid only after Next
// or SkipTo returned true.
func (it *Iterator) TF() int32 { return it.tfs[it.j] }

// Posting returns the current posting, its positions included when the
// iterator materializes them. Valid only after Next or SkipTo returned
// true.
func (it *Iterator) Posting() Posting {
	return Posting{Doc: it.Doc(), TF: it.TF(), Pos: it.Positions()}
}

// Count returns the total number of postings in the underlying list.
func (it *Iterator) Count() int { return it.pl.count }

// SkipTo advances to the first posting with Doc >= target, using the
// skip table to jump over (and never decode) non-containing blocks.
// It returns false if no such posting exists. A target inside the
// decoded block is found there (its last document is the block's
// lastDoc); otherwise the blocks not yet visited are searched for the
// first whose lastDoc reaches target, and only that one is decoded.
func (it *Iterator) SkipTo(target int32) bool {
	if it.j < it.n {
		if it.docs[it.j] >= target {
			return true
		}
		if target <= it.docs[it.n-1] {
			it.j = searchDocs(it.docs[:it.n], it.j+1, target)
			return true
		}
	}
	blocks := it.pl.blocks
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
	it.decodeBlock(lo)
	it.j = searchDocs(it.docs[:it.n], 0, target) // < n: the block's lastDoc >= target
	return true
}

// searchDocs returns the first i >= lo with docs[i] >= target, or
// len(docs) when there is none.
func searchDocs(docs []int32, lo int, target int32) int {
	hi := len(docs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if docs[m] < target {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// BytesDecoded returns the encoded bytes this iterator has decoded so
// far — the per-query cost unit dynamic pruning exists to reduce.
func (it *Iterator) BytesDecoded() int64 { return it.bytes }

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
