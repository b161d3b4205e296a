package format

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"gompresso/internal/huffman"
)

// BlockReader incrementally parses a Gompresso container from an io.Reader,
// one block at a time, without buffering the whole file — the streaming
// counterpart of ParseFile used by the public gompresso.Reader. Block fields
// are decoded into caller-provided storage that is reused across calls, so a
// steady-state read loop performs no allocations once buffers have grown to
// the stream's block size.
type BlockReader struct {
	r      *bufio.Reader
	hdr    FileHeader
	left   uint32 // blocks not yet returned
	seen   uint64 // raw bytes described by returned blocks
	off    int64  // container offset of the next unread byte
	head   [HeaderSize]byte
	packed []byte // scratch for nibble-packed code-length arrays
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

// Next reads the next block into b, reusing b's slices when they have
// capacity. It returns io.EOF after the last block, verifying that the
// stream's blocks add up to the header's raw size and that no trailing bytes
// remain.
func (br *BlockReader) Next(b *Block) error {
	if br.left == 0 {
		if br.seen != br.hdr.RawSize {
			return fmt.Errorf("%w: blocks total %d raw bytes, header says %d", ErrFormat, br.seen, br.hdr.RawSize)
		}
		// The only bytes allowed after the last block are a valid index
		// trailer whose offsets reproduce the block section just read.
		tail, err := io.ReadAll(io.LimitReader(br.r, maxTrailerSize(br.hdr)+1))
		if err != nil {
			return readErr(err, "reading past last block")
		}
		if len(tail) == 0 {
			return io.EOF
		}
		idx, err := parseIndexBytes(tail, br.hdr)
		if err != nil || idx.Offsets[br.hdr.NumBlocks] != br.off {
			return fmt.Errorf("%w: trailing bytes after last block", ErrFormat)
		}
		if _, err := br.r.ReadByte(); err != io.EOF {
			return fmt.Errorf("%w: trailing bytes after index trailer", ErrFormat)
		}
		br.off += int64(len(tail))
		return io.EOF
	}
	bi := br.hdr.NumBlocks - br.left

	var fixed [12]byte
	if _, err := io.ReadFull(br.r, fixed[:]); err != nil {
		return readErr(err, "block %d: header", bi)
	}
	br.off += 12
	b.RawLen = int(binary.LittleEndian.Uint32(fixed[:]))
	b.NumSeqs = int(binary.LittleEndian.Uint32(fixed[4:]))
	payloadLen := int(binary.LittleEndian.Uint32(fixed[8:]))
	if br.hdr.BlockSize != 0 && uint32(b.RawLen) > br.hdr.BlockSize {
		return fmt.Errorf("%w: block %d: raw length %d exceeds block size %d", ErrFormat, bi, b.RawLen, br.hdr.BlockSize)
	}
	if bi != br.hdr.NumBlocks-1 && uint32(b.RawLen) != br.hdr.BlockSize {
		return fmt.Errorf("%w: block %d: non-final block is %d bytes, block size is %d", ErrFormat, bi, b.RawLen, br.hdr.BlockSize)
	}
	b.LitLenLengths = b.LitLenLengths[:0]
	b.OffLengths = b.OffLengths[:0]
	b.SubBits = b.SubBits[:0]
	b.SubLits = b.SubLits[:0]

	if br.hdr.Variant == VariantBit {
		var err error
		b.LitLenLengths, err = br.readLengths(b.LitLenLengths, LitLenSyms)
		if err != nil {
			return readErr(err, "block %d: literal/length tree", bi)
		}
		b.OffLengths, err = br.readLengths(b.OffLengths, OffSyms)
		if err != nil {
			return readErr(err, "block %d: offset tree", bi)
		}
		var cnt [4]byte
		if _, err := io.ReadFull(br.r, cnt[:]); err != nil {
			return readErr(err, "block %d: sub-block count", bi)
		}
		br.off += 4
		numSubs := int(binary.LittleEndian.Uint32(cnt[:]))
		if br.hdr.SeqsPerSub == 0 {
			return fmt.Errorf("%w: block %d: zero sequences per sub-block", ErrFormat, bi)
		}
		want := 0
		if b.NumSeqs > 0 {
			want = (b.NumSeqs + int(br.hdr.SeqsPerSub) - 1) / int(br.hdr.SeqsPerSub)
		}
		if numSubs != want {
			return fmt.Errorf("%w: block %d: %d sub-blocks for %d seqs (%d per sub)", ErrFormat, bi, numSubs, b.NumSeqs, br.hdr.SeqsPerSub)
		}
		var totalBits int64
		cr := countingByteReader{r: br.r}
		for s := 0; s < numSubs; s++ {
			v, err := binary.ReadUvarint(&cr)
			if err != nil {
				return cr.varintErr(err, "block %d: sub-block size", bi)
			}
			lv, err := binary.ReadUvarint(&cr)
			if err != nil {
				return cr.varintErr(err, "block %d: sub-block literal count", bi)
			}
			b.SubBits = append(b.SubBits, int64(v))
			b.SubLits = append(b.SubLits, int32(lv))
			totalBits += int64(v)
		}
		if totalBits > int64(payloadLen)*8 {
			return fmt.Errorf("%w: block %d: sub-block bits %d exceed payload", ErrFormat, bi, totalBits)
		}
		br.off += cr.n
	}

	if err := br.readPayload(b, payloadLen); err != nil {
		return readErr(err, "block %d: payload", bi)
	}
	br.off += int64(payloadLen)
	br.seen += uint64(b.RawLen)
	br.left--
	return nil
}

// readPayload fills b.Payload with payloadLen bytes from the stream. The
// length field is attacker-controlled, so when the buffer must grow it
// grows incrementally, verifying each chunk actually arrives — a lying
// length cannot force an allocation larger than the bytes present. The
// steady state (buffer already at block size) stays one ReadFull, no
// allocations.
func (br *BlockReader) readPayload(b *Block, payloadLen int) error {
	if cap(b.Payload) >= payloadLen {
		b.Payload = b.Payload[:payloadLen]
		_, err := io.ReadFull(br.r, b.Payload)
		return err
	}
	const chunk = 1 << 20
	b.Payload = b.Payload[:0]
	for len(b.Payload) < payloadLen {
		n := payloadLen - len(b.Payload)
		if n > chunk {
			n = chunk
		}
		start := len(b.Payload)
		b.Payload = slices.Grow(b.Payload, n)[:start+n]
		if _, err := io.ReadFull(br.r, b.Payload[start:]); err != nil {
			return err
		}
	}
	return nil
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

// countingByteReader counts the bytes ReadUvarint consumes so Next can
// account for variable-length fields in the container offset, and keeps the
// source's own error apart from ReadUvarint's.
type countingByteReader struct {
	r   *bufio.Reader
	n   int64
	err error
}

func (c *countingByteReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.n++
	} else {
		c.err = err
	}
	return b, err
}

// varintErr wraps a ReadUvarint failure: a read that failed goes through
// readErr; a varint that overflowed is malformed.
func (c *countingByteReader) varintErr(err error, what string, args ...any) error {
	if c.err != nil {
		return readErr(c.err, what, args...)
	}
	return fmt.Errorf("%w: %s: %w", ErrFormat, fmt.Sprintf(what, args...), err)
}

// readLengths reads an n-symbol nibble-packed code-length array into dst.
func (br *BlockReader) readLengths(dst []uint8, n int) ([]uint8, error) {
	need := huffman.LengthsSize(n)
	if cap(br.packed) < need {
		br.packed = make([]byte, need)
	}
	packed := br.packed[:need]
	if _, err := io.ReadFull(br.r, packed); err != nil {
		return dst, err
	}
	br.off += int64(need)
	if cap(dst) < n {
		dst = make([]uint8, n)
	}
	dst = dst[:n]
	for i := 0; i < n; i++ {
		b := packed[i/2]
		if i%2 == 0 {
			dst[i] = b & 0x0f
		} else {
			dst[i] = b >> 4
		}
	}
	return dst, nil
}
