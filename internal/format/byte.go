package format

import (
	"encoding/binary"
	"fmt"
	"slices"

	"gompresso/internal/lz77"
)

// Gompresso/Byte block payload: a stream of byte-aligned sequences, LZ4-like
// (paper §II-A cites LZ4/Snappy as the byte-level family). Each sequence is:
//
//	token byte: low nibble = literal length (15 ⇒ extension bytes follow),
//	            high nibble = match length (15 ⇒ extension bytes follow)
//	[litLen extension: 255-run bytes]
//	[matchLen extension: 255-run bytes]
//	[offset: 2 bytes little-endian, present only when matchLen > 0]
//	[literal bytes]
//
// Unlike LZ4 we store the match length raw (0 = literal-only sequence), so
// null sequences from the DE parse and the trailing literal sequence need no
// special casing. Offsets are ≤ 64 KiB − 1; the compressor enforces a window
// that fits.

// MaxByteOffset is the largest offset the 2-byte field can carry.
const MaxByteOffset = 1<<16 - 1

func appendExt(dst []byte, v uint32) []byte {
	for {
		if v >= 255 {
			dst = append(dst, 255)
			v -= 255
			continue
		}
		dst = append(dst, byte(v))
		return dst
	}
}

// AppendSeqByte appends one encoded sequence; lit is the sequence's literal
// string.
func AppendSeqByte(dst []byte, s lz77.Seq, lit []byte) ([]byte, error) {
	if s.MatchLen > 0 && (s.Offset == 0 || s.Offset > MaxByteOffset) {
		return nil, fmt.Errorf("format: byte encoding: offset %d out of range", s.Offset)
	}
	litN := s.LitLen
	if litN > 14 {
		litN = 15
	}
	matchN := s.MatchLen
	if matchN > 14 {
		matchN = 15
	}
	dst = append(dst, byte(litN)|byte(matchN)<<4)
	if litN == 15 {
		dst = appendExt(dst, s.LitLen-15)
	}
	if matchN == 15 {
		dst = appendExt(dst, s.MatchLen-15)
	}
	if s.MatchLen > 0 {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(s.Offset))
	}
	dst = append(dst, lit...)
	return dst, nil
}

// EncodeByte appends a whole token stream, encoded as a Byte payload, to dst.
func EncodeByte(dst []byte, ts *lz77.TokenStream) ([]byte, error) {
	dst = slices.Grow(dst, len(ts.Literals)+4*len(ts.Seqs))
	lit := ts.Literals
	for i := range ts.Seqs {
		s := ts.Seqs[i]
		if int(s.LitLen) > len(lit) {
			return nil, fmt.Errorf("format: seq %d literal overrun", i)
		}
		var err error
		dst, err = AppendSeqByte(dst, s, lit[:s.LitLen])
		if err != nil {
			return nil, err
		}
		lit = lit[s.LitLen:]
	}
	if len(lit) != 0 {
		return nil, fmt.Errorf("format: %d literal bytes not covered by sequences", len(lit))
	}
	return dst, nil
}

// ParsedSeq is one decoded Byte-payload sequence. LitOff points into the
// payload at the literal string; Cost is the number of header bytes parsed
// (token + extensions + offset), used by the kernel cost model.
type ParsedSeq struct {
	Seq    lz77.Seq
	LitOff int
	Cost   int
}

// ParseSeqByte decodes the sequence starting at payload[off], returning it
// and the offset of the next sequence.
func ParseSeqByte(payload []byte, off int) (ParsedSeq, int, error) {
	var p ParsedSeq
	if off >= len(payload) {
		return p, 0, errCorrupt("sequence header past end (off %d)", off)
	}
	start := off
	tok := payload[off]
	off++
	litLen := uint32(tok & 0x0f)
	matchLen := uint32(tok >> 4)
	var err error
	if litLen == 15 {
		litLen, off, err = parseExt(payload, off, 15)
		if err != nil {
			return p, 0, err
		}
	}
	if matchLen == 15 {
		matchLen, off, err = parseExt(payload, off, 15)
		if err != nil {
			return p, 0, err
		}
	}
	var offset uint32
	if matchLen > 0 {
		if off+2 > len(payload) {
			return p, 0, errCorrupt("truncated offset at %d", off)
		}
		offset = uint32(binary.LittleEndian.Uint16(payload[off:]))
		off += 2
		if offset == 0 {
			return p, 0, errCorrupt("zero offset at %d", start)
		}
	}
	p.Cost = off - start
	p.LitOff = off
	if off+int(litLen) > len(payload) {
		return p, 0, errCorrupt("truncated literals at %d", off)
	}
	off += int(litLen)
	p.Seq = lz77.Seq{LitLen: litLen, MatchLen: matchLen, Offset: offset}
	return p, off, nil
}

func parseExt(payload []byte, off int, base uint32) (uint32, int, error) {
	v := base
	for {
		if off >= len(payload) {
			return 0, 0, errCorrupt("truncated length extension at %d", off)
		}
		b := payload[off]
		off++
		v += uint32(b)
		if b != 255 {
			return v, off, nil
		}
	}
}

// DecodeByte parses a whole Byte payload back into a token stream with
// rawLen as the declared uncompressed size.
func DecodeByte(payload []byte, numSeqs, rawLen int) (*lz77.TokenStream, error) {
	ts := &lz77.TokenStream{RawLen: rawLen}
	off := 0
	for i := 0; i < numSeqs; i++ {
		p, next, err := ParseSeqByte(payload, off)
		if err != nil {
			return nil, fmt.Errorf("format: seq %d: %w", i, err)
		}
		ts.Seqs = append(ts.Seqs, p.Seq)
		ts.Literals = append(ts.Literals, payload[p.LitOff:p.LitOff+int(p.Seq.LitLen)]...)
		off = next
	}
	if off != len(payload) {
		return nil, errCorrupt("%d trailing payload bytes", len(payload)-off)
	}
	return ts, nil
}
