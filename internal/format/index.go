package format

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// Random access. Blocks are independently decompressible and every
// non-final block expands to exactly BlockSize raw bytes, so the raw offset
// of block i is i*BlockSize — the only thing a seek needs that the header
// does not already give is where each block's record starts in the
// compressed container. An Index holds those offsets. OpenIndex obtains it
// the cheaper of two ways: read back from the optional index trailer the
// compressor appended (AppendIndex → ReadIndexAt), else reconstructed by
// one scan of the block records (ScanIndex).
//
// Trailer layout, appended after the last block:
//
//	uvarint × NumBlocks   compressed length of each block record
//	uint32                length of the varint area above
//	"GPIX"                trailer magic
//
// The fixed-size footer at the very end lets a reader with random access
// find the trailer without scanning; readers without one (BlockReader)
// validate and absorb it after the last block. Containers without a
// trailer remain valid, and a container with one remains readable by any
// consumer that tolerates it (all of this package's parsers do).

var indexMagic = [4]byte{'G', 'P', 'I', 'X'}

// IndexFooterSize is the size of the trailer's fixed footer.
const IndexFooterSize = 8

// Index maps block numbers to compressed byte offsets. Offsets has
// NumBlocks+1 entries: Offsets[i] is the container-relative offset of block
// i's record, and the final entry is the end of the block section (where an
// index trailer, if any, begins).
type Index struct {
	Offsets []int64
}

// NumBlocks returns the number of blocks the index describes.
func (ix *Index) NumBlocks() int { return len(ix.Offsets) - 1 }

// maxTrailerSize bounds how many bytes a valid trailer for h can occupy.
func maxTrailerSize(h FileHeader) int64 {
	return int64(h.NumBlocks)*binary.MaxVarintLen64 + IndexFooterSize
}

// AppendIndex serializes an index trailer for the given block offsets
// (NumBlocks+1 entries, as in Index.Offsets) onto dst, which must end at
// the block section's last byte.
func AppendIndex(dst []byte, offsets []int64) []byte {
	start := len(dst)
	for i := 0; i+1 < len(offsets); i++ {
		dst = binary.AppendUvarint(dst, uint64(offsets[i+1]-offsets[i]))
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(dst)-start))
	return append(dst, indexMagic[:]...)
}

// parseIndexBytes decodes a trailer that occupies exactly tail and follows a
// block section that ended at container offset blocksEnd. It is the only
// trailer parser: it validates framing (magic, varint-area length), shape
// (one record length per block, nothing left over) and that the record
// lengths add up to blocksEnd — an index that does not reproduce the block
// section it trails is not an index.
func parseIndexBytes(tail []byte, h FileHeader, blocksEnd int64) (*Index, error) {
	if len(tail) < IndexFooterSize {
		return nil, fmt.Errorf("%w: index trailer too short", ErrFormat)
	}
	foot := tail[len(tail)-IndexFooterSize:]
	if [4]byte(foot[4:]) != indexMagic {
		return nil, fmt.Errorf("%w: bad index magic", ErrFormat)
	}
	if int(binary.LittleEndian.Uint32(foot)) != len(tail)-IndexFooterSize {
		return nil, fmt.Errorf("%w: index trailer length mismatch", ErrFormat)
	}
	area := tail[:len(tail)-IndexFooterSize]
	// Each record length is at least one varint byte, which bounds the
	// offsets allocation by the input actually present — a lying block
	// count cannot force a huge allocation.
	if int64(h.NumBlocks) > int64(len(area)) {
		return nil, fmt.Errorf("%w: %d index entries exceed trailer size", ErrFormat, h.NumBlocks)
	}
	offsets := make([]int64, h.NumBlocks+1)
	offsets[0] = HeaderSize
	for i := uint32(0); i < h.NumBlocks; i++ {
		v, n := binary.Uvarint(area)
		if n <= 0 {
			return nil, fmt.Errorf("%w: bad index varint for block %d", ErrFormat, i)
		}
		area = area[n:]
		offsets[i+1] = offsets[i] + int64(v)
	}
	if len(area) != 0 {
		return nil, fmt.Errorf("%w: %d stray index bytes", ErrFormat, len(area))
	}
	if offsets[h.NumBlocks] != blocksEnd {
		return nil, fmt.Errorf("%w: index ends at %d, block section at %d", ErrFormat, offsets[h.NumBlocks], blocksEnd)
	}
	return &Index{Offsets: offsets}, nil
}

// ReadFullAt fills p from ra at off. io.ReaderAt lets a read that ends
// exactly at end of input return len(p), io.EOF — the footer read below is
// always such a read — so a full read is a success whatever came with it.
func ReadFullAt(ra io.ReaderAt, p []byte, off int64) error {
	if n, err := ra.ReadAt(p, off); n < len(p) && err != nil {
		return err
	}
	return nil
}

// ReadIndexAt reads the index trailer of a size-byte container stored in
// ra, whose header is h. It reports ErrFormat when the container carries no
// valid trailer, one cut short included; a read that fails for any other
// reason is the source's error, not the container's (readErr).
func ReadIndexAt(ra io.ReaderAt, size int64, h FileHeader) (*Index, error) {
	if size < HeaderSize+IndexFooterSize {
		return nil, fmt.Errorf("%w: no index trailer", ErrFormat)
	}
	var foot [IndexFooterSize]byte
	if err := ReadFullAt(ra, foot[:], size-IndexFooterSize); err != nil {
		return nil, readErr(err, "index footer")
	}
	if [4]byte(foot[4:]) != indexMagic {
		return nil, fmt.Errorf("%w: no index trailer", ErrFormat)
	}
	total := int64(binary.LittleEndian.Uint32(foot[:])) + IndexFooterSize
	if total > size-HeaderSize || total > maxTrailerSize(h) {
		return nil, fmt.Errorf("%w: implausible index trailer", ErrFormat)
	}
	tail := make([]byte, total)
	if err := ReadFullAt(ra, tail, size-total); err != nil {
		return nil, readErr(err, "index trailer")
	}
	return parseIndexBytes(tail, h, size-total)
}

// OpenIndex returns the block index of a size-byte container stored in ra,
// whose header is h: the trailer's when it carries a valid one, else the
// result of one scan of its block records. scanned reports which. A source
// that fails while the trailer is read is not asked for the whole container:
// its error is returned.
func OpenIndex(ra io.ReaderAt, size int64, h FileHeader) (idx *Index, scanned bool, err error) {
	if idx, err = ReadIndexAt(ra, size, h); !errors.Is(err, ErrFormat) {
		return idx, false, err
	}
	_, idx, err = ScanIndex(io.NewSectionReader(ra, 0, size))
	return idx, true, err
}

// ScanIndex reconstructs the index of a container streamed from r, which
// must be positioned at the file header. The whole container is read once.
func ScanIndex(r io.Reader) (FileHeader, *Index, error) {
	br, err := NewBlockReader(r)
	if err != nil {
		return FileHeader{}, nil, err
	}
	h := br.Header()
	// Grown as blocks actually parse (each consumes ≥ 12 stream bytes), so
	// a lying block count in the header cannot force a huge allocation.
	offsets := make([]int64, 0, 64)
	var b Block
	for bi := uint32(0); bi < h.NumBlocks; bi++ {
		offsets = append(offsets, br.Offset())
		if err := br.Next(&b); err != nil {
			return h, nil, err
		}
	}
	offsets = append(offsets, br.Offset())
	return h, &Index{Offsets: offsets}, nil
}
