package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
)

// On-disk index format (little-endian):
//
//	magic "DWRIX7\n\x00"                     8 bytes
//	blockSize (uvarint)
//	numDocs (uvarint), then per doc: ext (uvarint), length (uvarint)
//	numTerms (uvarint), then per term, in strictly ascending order:
//	    len(term) (uvarint), term bytes, count (uvarint),
//	    len(data) (uvarint), data bytes,
//	    numBlocks (uvarint), per block: lastDoc (uvarint), offset (uvarint)
//	crc32 (IEEE) of everything after the magic   4 bytes
//
// The format exists so a deployment can build an index offline, ship the
// file to query processors, and swap it in — the paper's "halt a part of
// the index, substitute it and re-initiate". Version 2 replaced the flat
// skip table with skip-aligned blocks; version 3 added the resident
// per-term score-bound summary (TermScoreMeta) evaluator and broker prune
// with; version 4 dropped the per-block score bounds nothing reads any
// more; version 5 dropped the compress and positions flag bytes, since
// every index is block-compressed and positional; version 6 replaced the
// group-varint doc gaps and varint TFs with fixed-width packed sections,
// so any posting of a block is one word load away, and ends each list's
// data with eight zero bytes; version 7 dropped every derived number —
// cf and the score-bound summary — so a file holds postings and counts
// only. Older DWRIX versions are rejected (rebuild the index). Read walks
// every block before it accepts a list (postingList.validate), so the
// checksum is not the only guard, and takes cf and the summary from that
// walk: no number in the file can loosen or tighten a score bound.

var persistMagic = [8]byte{'D', 'W', 'R', 'I', 'X', '7', '\n', 0}

// WriteFile writes the index to path atomically: a crash leaves either
// the old file or the whole new one (write temp, sync, rename, sync the
// directory).
func (ix *Index) WriteFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("index: creating %s: %w", tmp, err)
	}
	w := bufio.NewWriter(f)
	if err := ix.Write(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("index: flushing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("index: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("index: renaming %s: %w", tmp, err)
	}
	dir, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("index: opening directory of %s: %w", path, err)
	}
	defer dir.Close()
	if err := dir.Sync(); err != nil {
		return fmt.Errorf("index: syncing directory of %s: %w", path, err)
	}
	return nil
}

// ReadFile loads an index written by WriteFile.
func ReadFile(path string) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("index: opening %s: %w", path, err)
	}
	defer f.Close()
	return Read(bufio.NewReader(f))
}

// crcWriter hashes bytes as they stream through.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (cw *crcWriter) Write(p []byte) (int, error) {
	cw.crc = crc32.Update(cw.crc, crc32.IEEETable, p)
	return cw.w.Write(p)
}

// Write serializes the index to w.
func (ix *Index) Write(w io.Writer) error {
	if _, err := w.Write(persistMagic[:]); err != nil {
		return fmt.Errorf("index: writing magic: %w", err)
	}
	cw := &crcWriter{w: w}
	var buf [binary.MaxVarintLen64]byte
	putUvarint := func(v uint64) error {
		n := binary.PutUvarint(buf[:], v)
		_, err := cw.Write(buf[:n])
		return err
	}

	if err := putUvarint(uint64(ix.opts.BlockSize)); err != nil {
		return err
	}

	if err := putUvarint(uint64(len(ix.docs))); err != nil {
		return err
	}
	for _, d := range ix.docs {
		if err := putUvarint(uint64(d.ext)); err != nil {
			return err
		}
		if err := putUvarint(uint64(d.length)); err != nil {
			return err
		}
	}

	if err := putUvarint(uint64(len(ix.termList))); err != nil {
		return err
	}
	for i := range ix.termList {
		e := &ix.termList[i]
		if err := putUvarint(uint64(len(e.term))); err != nil {
			return err
		}
		if _, err := cw.Write([]byte(e.term)); err != nil {
			return err
		}
		if err := putUvarint(uint64(e.pl.count)); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(e.pl.data))); err != nil {
			return err
		}
		if _, err := cw.Write(e.pl.data); err != nil {
			return err
		}
		if err := putUvarint(uint64(len(e.pl.blocks))); err != nil {
			return err
		}
		for _, b := range e.pl.blocks {
			if err := putUvarint(uint64(b.lastDoc)); err != nil {
				return err
			}
			if err := putUvarint(uint64(b.offset)); err != nil {
				return err
			}
		}
	}
	var crcBytes [4]byte
	binary.LittleEndian.PutUint32(crcBytes[:], cw.crc)
	if _, err := w.Write(crcBytes[:]); err != nil {
		return fmt.Errorf("index: writing checksum: %w", err)
	}
	return nil
}

// crcReader hashes bytes as they are read.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (cr *crcReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, p[:n])
	return n, err
}

func (cr *crcReader) ReadByte() (byte, error) {
	var b [1]byte
	if _, err := io.ReadFull(cr.r, b[:]); err != nil {
		return 0, err
	}
	cr.crc = crc32.Update(cr.crc, crc32.IEEETable, b[:])
	return b[0], nil
}

// Every count in the file is read before the trailing checksum can vouch
// for it, so Read reserves memory for what the stream has delivered, not
// for what it announces: slices start at no more than prealloc entries
// (trustedBytes for byte runs) and grow by append from there. A corrupt
// or hostile header then costs an error, not the process.
const (
	prealloc     = 1 << 12
	trustedBytes = 1 << 16
)

// readBytes reads exactly n bytes from r.
func readBytes(r io.Reader, n uint64) ([]byte, error) {
	if n <= trustedBytes {
		b := make([]byte, n)
		_, err := io.ReadFull(r, b)
		return b, err
	}
	var buf bytes.Buffer
	_, err := io.CopyN(&buf, r, int64(n))
	return buf.Bytes(), err
}

// Read deserializes an index written by Write, verifying the checksum.
func Read(r io.Reader) (*Index, error) {
	var magic [8]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("index: reading magic: %w", err)
	}
	if magic != persistMagic {
		if string(magic[:5]) == "DWRIX" {
			return nil, fmt.Errorf("index: unsupported index format %q (want %q): rebuild the index", magic[:6], persistMagic[:6])
		}
		return nil, fmt.Errorf("index: bad magic %q: not a dwr index file", magic[:])
	}
	cr := &crcReader{r: r}
	readUvarint := func() (uint64, error) { return binary.ReadUvarint(cr) }

	bs, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("index: reading options: %w", err)
	}
	opts := Options{BlockSize: int(bs)}

	nDocs, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("index: reading doc count: %w", err)
	}
	const maxEntities = math.MaxInt32 // ordinals and posting counts are 32-bit
	if nDocs > maxEntities {
		return nil, fmt.Errorf("index: implausible doc count %d", nDocs)
	}
	dt := docTable{docs: make([]docEntry, 0, min(nDocs, prealloc))}
	for i := range nDocs {
		ext, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: reading doc %d: %w", i, err)
		}
		length, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: reading doc %d: %w", i, err)
		}
		if length > math.MaxInt32 { // positions and MinLen are 32-bit
			return nil, fmt.Errorf("index: doc %d: implausible length %d", i, length)
		}
		if _, err := dt.add(int(ext), int(length)); err != nil {
			return nil, err
		}
	}
	ix := dt.index(opts)

	nTerms, err := readUvarint()
	if err != nil {
		return nil, fmt.Errorf("index: reading term count: %w", err)
	}
	if nTerms > maxEntities {
		return nil, fmt.Errorf("index: implausible term count %d", nTerms)
	}
	ix.termList = make([]termEntry, 0, min(nTerms, prealloc))
	for i := range nTerms {
		tl, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d: %w", i, err)
		}
		if tl > 1<<20 {
			return nil, fmt.Errorf("index: implausible term length %d", tl)
		}
		tb, err := readBytes(cr, tl)
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d: %w", i, err)
		}
		term := string(tb)
		if n := len(ix.termList); n > 0 && term <= ix.termList[n-1].term {
			return nil, fmt.Errorf("index: term %d %q does not follow %q", i, term, ix.termList[n-1].term)
		}
		count, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d postings: %w", i, err)
		}
		if count == 0 { // no builder writes one, and mergeParts drops one
			return nil, fmt.Errorf("index: term %d %q has no postings", i, term)
		}
		dl, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d data: %w", i, err)
		}
		if dl > 1<<32 { // block offsets are 32-bit
			return nil, fmt.Errorf("index: implausible posting data length %d", dl)
		}
		data, err := readBytes(cr, dl)
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d data: %w", i, err)
		}
		nBlocks, err := readUvarint()
		if err != nil {
			return nil, fmt.Errorf("index: reading term %d blocks: %w", i, err)
		}
		// The iterator indexes data and sizes its decode by this table
		// without checking it, so a table it cannot walk is refused here:
		// one block per blockSize postings, last documents ascending inside
		// the document table, offsets ascending inside data.
		if per := uint64(opts.blockSize()); count > nDocs || nBlocks != (count+per-1)/per {
			return nil, fmt.Errorf("index: term %d: %d blocks for %d postings over %d documents", i, nBlocks, count, nDocs)
		}
		blocks := make([]blockMeta, 0, min(nBlocks, prealloc))
		for b := range nBlocks {
			lastDoc, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("index: reading block: %w", err)
			}
			off, err := readUvarint()
			if err != nil {
				return nil, fmt.Errorf("index: reading block: %w", err)
			}
			if lastDoc >= nDocs || off >= dl ||
				b > 0 && (int32(lastDoc) <= blocks[b-1].lastDoc || uint32(off) <= blocks[b-1].offset) {
				return nil, fmt.Errorf("index: term %d block %d (last doc %d, offset %d) out of range or out of order", i, b, lastDoc, off)
			}
			blocks = append(blocks, blockMeta{lastDoc: int32(lastDoc), offset: uint32(off)})
		}
		pl := postingList{count: int32(count), data: data, blocks: blocks}
		if err := pl.validate(opts.blockSize(), len(ix.docs), ix.docs, nil); err != nil {
			return nil, fmt.Errorf("index: term %d: %w", i, err)
		}
		ix.addTerm(term, pl)
	}

	wantCRC := cr.crc
	var crcBytes [4]byte
	if _, err := io.ReadFull(r, crcBytes[:]); err != nil {
		return nil, fmt.Errorf("index: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(crcBytes[:]); got != wantCRC {
		return nil, fmt.Errorf("index: checksum mismatch: file %08x, computed %08x (corrupt index)", got, wantCRC)
	}
	ix.deriveFrontiers()
	return ix, nil
}
