package format

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"gompresso/internal/huffman"
)

// BlockReader reads a Gompresso container from an io.Reader one block at a
// time, without buffering the whole file — what the public gompresso.Reader
// and ScanIndex run on. It only frames: Next finds where the next record
// ends, reads it into the Block's record buffer and hands those bytes to
// ParseBlock, which validates them exactly as it would inside ParseFile.
// The record buffer and the Block's slices are reused across calls, so a
// steady-state read loop performs no allocations once they have grown to the
// stream's largest record.
type BlockReader struct {
	r    *bufio.Reader
	hdr  FileHeader
	left uint32 // blocks not yet returned
	seen uint64 // raw bytes described by returned blocks
	off  int64  // container offset of the next unread byte
	head [HeaderSize]byte
}

// NewBlockReader reads and validates the file header.
func NewBlockReader(r io.Reader) (*BlockReader, error) {
	br := &BlockReader{r: bufio.NewReaderSize(r, 64<<10)}
	if _, err := io.ReadFull(br.r, br.head[:]); err != nil {
		return nil, readErr(err, "reading header")
	}
	h, err := ParseHeader(br.head[:])
	if err != nil {
		return nil, err
	}
	br.hdr = h
	br.left = h.NumBlocks
	br.off = HeaderSize
	return br, nil
}

// NewBlockReaderAt resumes block-at-a-time reading in the middle of a
// container whose header h has already been parsed: r must be positioned at
// block firstBlock's record, whose container offset is off (both typically
// from an Index). The returned reader yields blocks firstBlock..NumBlocks-1
// and then applies the same end-of-stream validation as a full read.
func NewBlockReaderAt(r io.Reader, h FileHeader, firstBlock uint32, off int64) *BlockReader {
	seen := uint64(firstBlock) * uint64(h.BlockSize)
	if seen > h.RawSize {
		seen = h.RawSize
	}
	return &BlockReader{
		r:    bufio.NewReaderSize(r, 64<<10),
		hdr:  h,
		left: h.NumBlocks - firstBlock,
		seen: seen,
		off:  off,
	}
}

// Header returns the parsed file header.
func (br *BlockReader) Header() FileHeader { return br.hdr }

// Offset returns the container offset of the next unread byte — after Next
// returns block i, the offset where block i+1's record starts.
func (br *BlockReader) Offset() int64 { return br.off }

// Next reads the next block into b, reusing b's record buffer and slices
// when they have capacity; b.Payload is valid until b is passed to Next
// again. It returns io.EOF after the last block, verifying that the stream's
// blocks add up to the header's raw size and that no trailing bytes remain.
func (br *BlockReader) Next(b *Block) error {
	if br.left == 0 {
		if br.seen != br.hdr.RawSize {
			return fmt.Errorf("%w: blocks total %d raw bytes, header says %d", ErrFormat, br.seen, br.hdr.RawSize)
		}
		// The only bytes allowed after the last block are a valid index
		// trailer whose offsets reproduce the block section just read. One
		// byte more than the longest trailer is asked for: if it arrives,
		// tail is not a trailer and parseIndexBytes says so.
		tail, err := io.ReadAll(io.LimitReader(br.r, maxTrailerSize(br.hdr)+1))
		if err != nil {
			return readErr(err, "reading past last block")
		}
		if len(tail) == 0 {
			return io.EOF
		}
		if _, err := parseIndexBytes(tail, br.hdr, br.off); err != nil {
			return fmt.Errorf("%w: trailing bytes after last block", ErrFormat)
		}
		br.off += int64(len(tail))
		return io.EOF
	}
	bi := br.hdr.NumBlocks - br.left
	rec, err := br.frame(b.rec[:0])
	b.rec = rec
	if err != nil {
		return readErr(err, "block %d: reading record (%d bytes in)", bi, len(rec))
	}
	if _, err := ParseBlock(br.hdr, bi, rec, b); err != nil {
		return err
	}
	br.off += int64(len(rec))
	br.seen += uint64(b.RawLen)
	br.left--
	return nil
}

// frame appends the next block record to rec. It knows where a record's
// fields end and nothing of what they may hold: 12 fixed bytes, the last
// four the payload length; for Bit the two fixed-size trees, a sub-block
// count and two varints per sub-block; then the payload.
func (br *BlockReader) frame(rec []byte) ([]byte, error) {
	rec, err := br.fill(rec, 12)
	if err != nil {
		return rec, err
	}
	payloadLen := int(binary.LittleEndian.Uint32(rec[8:]))
	if br.hdr.Variant == VariantBit {
		rec, err = br.fill(rec, huffman.LengthsSize(LitLenSyms)+huffman.LengthsSize(OffSyms)+4)
		if err != nil {
			return rec, err
		}
		// A varint ends at its first byte without the continuation bit, so
		// counting those finds the end of the list without decoding it.
		for ends := 2 * int(binary.LittleEndian.Uint32(rec[len(rec)-4:])); ends > 0; {
			if _, err := br.r.Peek(1); err != nil {
				return rec, err
			}
			buf, _ := br.r.Peek(br.r.Buffered())
			n := 0
			for ; n < len(buf) && ends > 0; n++ {
				if buf[n] < 0x80 {
					ends--
				}
			}
			rec = append(reserve(rec, n, n+ends), buf[:n]...)
			br.r.Discard(n)
		}
	}
	return br.fill(rec, payloadLen)
}

// fill appends the stream's next n bytes to rec.
func (br *BlockReader) fill(rec []byte, n int) ([]byte, error) {
	for n > 0 {
		rec = reserve(rec, 1, n)
		step := min(n, cap(rec)-len(rec))
		m, err := io.ReadFull(br.r, rec[len(rec):len(rec)+step])
		rec = rec[:len(rec)+m]
		if err != nil {
			return rec, err
		}
		n -= step
	}
	return rec, nil
}

// reserve returns rec with room for need more bytes. When it has to grow it
// grows by claim, the bytes the record says are still to come,
//   - plus a sixteenth, so a stream of similar records settles on its
//     buffers after the first few;
//   - but at least a quarter of what rec holds, so a large record grows in
//     linear time;
//   - and at most 1 MiB (or that quarter, once it is more), because the
//     claim is the stream's own word. The buffer only ever runs that far
//     ahead of bytes that actually arrived: a lying length costs 1 MiB on a
//     short stream and never more than a quarter over what the source
//     delivered.
func reserve(rec []byte, need, claim int) []byte {
	if cap(rec)-len(rec) >= need {
		return rec
	}
	quarter := len(rec) / 4
	grow := min(max(claim+claim/16, quarter), max(1<<20, quarter))
	return append(make([]byte, 0, len(rec)+grow), rec...)
}

// readErr wraps a failed read of the container. Running out of bytes is
// truncation — a malformed container, ErrFormat. Any other cause is the
// source failing, not the bytes being wrong, and is passed on unclassified so
// callers can tell a sick disk from a corrupt object.
func readErr(err error, what string, args ...any) error {
	what = fmt.Sprintf(what, args...)
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %s: truncated (%w)", ErrFormat, what, err)
	}
	return fmt.Errorf("format: %s: %w", what, err)
}
