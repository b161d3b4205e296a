// Package bitio provides LSB-first bit-level readers and writers used by the
// Huffman and ANS entropy coders.
//
// Bits are packed least-significant-bit first within each byte, the same
// convention as DEFLATE (RFC 1951): the first bit written becomes bit 0 of
// byte 0. This lets the decoder refill a 64-bit buffer with cheap shifts and
// peek a fixed number of bits for table-driven decoding.
package bitio

import (
	"errors"
	"fmt"
)

// ErrOverrun is returned when a read requests more bits than remain.
var ErrOverrun = errors.New("bitio: read past end of stream")

// Writer accumulates bits LSB-first into an in-memory buffer.
// The zero value is ready to use.
type Writer struct {
	buf  []byte
	acc  uint64 // pending bits, LSB-first
	nacc uint   // number of valid bits in acc (< 8 after flushAcc)
	bits int64  // total bits written
}

// NewWriter returns a Writer with capacity preallocated for sizeHint bytes.
func NewWriter(sizeHint int) *Writer {
	return &Writer{buf: make([]byte, 0, sizeHint)}
}

// WriteBits appends the n low bits of v, LSB-first. n must be in [0, 57].
// The limit of 57 keeps the accumulator from overflowing with up to 7
// leftover bits; all users write codes of at most 32 bits.
func (w *Writer) WriteBits(v uint64, n uint) {
	if n > 57 {
		panic(fmt.Sprintf("bitio: WriteBits n=%d out of range", n))
	}
	v &= (1 << n) - 1
	w.acc |= v << w.nacc
	w.nacc += n
	w.bits += int64(n)
	for w.nacc >= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
		w.nacc -= 8
	}
}

// BitLen reports the total number of bits written so far.
func (w *Writer) BitLen() int64 { return w.bits }

// AlignByte pads with zero bits to the next byte boundary.
func (w *Writer) AlignByte() {
	if rem := w.bits % 8; rem != 0 {
		w.WriteBits(0, uint(8-rem))
	}
}

// Bytes flushes any partial byte (zero-padded) and returns the underlying
// buffer. The Writer may continue to be used; the padding bits are counted.
func (w *Writer) Bytes() []byte {
	w.AlignByte()
	return w.buf
}

// Reader consumes bits LSB-first from a byte slice.
type Reader struct {
	data []byte
	pos  int    // next byte index to load into acc
	acc  uint64 // bit buffer, next bit is LSB
	nacc uint   // valid bits in acc
	read int64  // total bits consumed
	lim  int64  // total bits available
}

// NewReader returns a Reader over data.
func NewReader(data []byte) *Reader {
	r := &Reader{}
	r.Reset(data)
	return r
}

// NewReaderBits returns a Reader over data that exposes exactly nbits bits.
func NewReaderBits(data []byte, nbits int64) *Reader {
	r := NewReader(data)
	if nbits > r.lim {
		panic("bitio: nbits exceeds data length")
	}
	r.lim = nbits
	return r
}

// NewReaderAtBit returns a Reader positioned at absolute bit offset bitOff
// within data, exposing nbits bits from there. Gompresso's parallel Huffman
// decoder uses this to seek each lane directly to its sub-block, whose
// starting offset is the prefix sum of the sub-block bit sizes stored in the
// block header (paper §III-B1).
func NewReaderAtBit(data []byte, bitOff, nbits int64) (*Reader, error) {
	if bitOff < 0 || nbits < 0 || bitOff+nbits > int64(len(data))*8 {
		return nil, ErrOverrun
	}
	r := &Reader{}
	r.data = data
	r.pos = int(bitOff / 8)
	r.lim = bitOff + nbits
	r.read = bitOff
	if rem := uint(bitOff % 8); rem > 0 {
		r.fill()
		r.acc >>= rem
		r.nacc -= rem
	}
	return r, nil
}

// Reset re-points the reader at data with an empty bit buffer.
func (r *Reader) Reset(data []byte) {
	r.data = data
	r.pos = 0
	r.acc = 0
	r.nacc = 0
	r.read = 0
	r.lim = int64(len(data)) * 8
}

func (r *Reader) fill() {
	for r.nacc <= 56 && r.pos < len(r.data) {
		r.acc |= uint64(r.data[r.pos]) << r.nacc
		r.pos++
		r.nacc += 8
	}
}

// ReadBits consumes and returns the next n bits (n ≤ 57), LSB-first.
func (r *Reader) ReadBits(n uint) (uint64, error) {
	if n > 57 {
		panic(fmt.Sprintf("bitio: ReadBits n=%d out of range", n))
	}
	if r.read+int64(n) > r.lim {
		return 0, ErrOverrun
	}
	if r.nacc < n {
		r.fill()
		if r.nacc < n {
			return 0, ErrOverrun
		}
	}
	v := r.acc & ((1 << n) - 1)
	r.acc >>= n
	r.nacc -= n
	r.read += int64(n)
	return v, nil
}

// Peek returns the next n bits without consuming them. If fewer than n bits
// remain, the missing high bits are zero — this is the standard convention
// for LUT-based Huffman decoding near the end of a stream.
func (r *Reader) Peek(n uint) uint64 {
	if r.nacc < n {
		r.fill()
	}
	return r.acc & ((1 << n) - 1)
}

// Skip consumes n bits previously inspected with Peek.
func (r *Reader) Skip(n uint) error {
	if r.read+int64(n) > r.lim {
		return ErrOverrun
	}
	if r.nacc < n {
		r.fill()
		if r.nacc < n {
			return ErrOverrun
		}
	}
	r.acc >>= n
	r.nacc -= n
	r.read += int64(n)
	return nil
}

// BitsRead reports the number of bits consumed so far.
func (r *Reader) BitsRead() int64 { return r.read }
