package format

import (
	"fmt"
	"sync"

	"gompresso/internal/bitio"
	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
)

// Fused host decode paths. The reference pipeline materializes a
// lz77.TokenStream per block (DecodeBit, then TokenStream.Decompress); the
// functions here go bitstream→output in a single pass with no intermediate
// token stream and no steady-state allocations: decode tables live in a
// pooled DecodeScratch, the bit buffer stays in registers across symbols
// (bitio.Cursor), and match expansion uses chunked copies (lz77.CopyWithin).

// Packed-entry layout shared by the fused tables. Unlike the generic
// huffman.Decoder LUT, entries pre-resolve symbol semantics so the hot loop
// never consults LenVal/OffVal:
//
//	bits 0–3   bits to consume (codeLen; a pair entry stores both codes' sum)
//	bit  4     length-symbol flag
//	bit  5     literal-pair flag
//	bits 8–15  literal byte, or first literal of a pair
//	bits 16–23 second literal of a pair
//	bits 8–12  extra-bit count ≤ 16    (length flag set)
//	bits 13–30 length base     ≤ 2^16  (length flag set)
//
// Offset-table entries pack codeLen (0–3), extra-bit count ≤ 20 (4–8) and
// the offset base ≤ 2^20 (9–29).
const (
	entryLenFlag  = 16
	entryPairFlag = 32
)

// pairTableBits caps the widened literal/length table. Each window whose
// first bits form a complete literal code followed by another complete
// literal code decodes BOTH in one lookup — the prefix property guarantees
// the second decode is the true next symbol. 2^13 entries is 32 KB, sized to
// stay L1-resident.
const pairTableBits = 13

// DecodeScratch holds the per-block decode tables the fused Bit path
// rebuilds for every block. Reusing one across blocks (or taking one from
// the package pool, or passing nil to DecodeBitInto) makes the steady state
// allocation-free.
type DecodeScratch struct {
	lit  []uint32 // 2^litBits entries, single-symbol
	off  []uint32
	pair []uint32 // 2^pairTableBits entries, literal pairs pre-merged
}

var scratchPool = sync.Pool{New: func() any { return new(DecodeScratch) }}

// GetScratch takes a DecodeScratch from the package pool.
//
//lint:allow poolescape sanctioned lifecycle helper, paired with PutScratch
func GetScratch() *DecodeScratch { return scratchPool.Get().(*DecodeScratch) }

// PutScratch returns a DecodeScratch to the package pool.
func PutScratch(sc *DecodeScratch) { scratchPool.Put(sc) }

func packLitLen(sym int, codeLen uint8) uint32 {
	if sym < 256 {
		return uint32(sym)<<8 | uint32(codeLen)
	}
	base, eb, _ := LenVal(sym)
	return base<<13 | uint32(eb)<<8 | entryLenFlag | uint32(codeLen)
}

func packOff(sym int, codeLen uint8) uint32 {
	base, eb, _ := OffVal(sym)
	return base<<9 | uint32(eb)<<4 | uint32(codeLen)
}

// buildPairTable widens the single-symbol table to pairTableBits and merges
// adjacent literal pairs into one entry. Windows that do not start two
// complete literal codes keep their single-symbol entry.
func buildPairTable(pair, lit []uint32) []uint32 {
	n := 1 << pairTableBits
	if cap(pair) < n {
		pair = make([]uint32, n)
	} else {
		pair = pair[:n]
	}
	litMask := uint32(len(lit) - 1)
	for w := 0; w < n; w++ {
		e1 := lit[uint32(w)&litMask]
		if e1&(entryLenFlag|entryPairFlag) == 0 && e1&15 != 0 {
			l1 := e1 & 15
			e2 := lit[(uint32(w)>>l1)&litMask]
			if l2 := e2 & 15; e2&(entryLenFlag|entryPairFlag) == 0 && l2 != 0 && l1+l2 <= pairTableBits {
				pair[w] = entryPairFlag | (l1 + l2) | (e1 & 0xff00) | (e2&0xff00)<<8
				continue
			}
		}
		pair[w] = e1
	}
	return pair
}

// errCorrupt is the fused paths' error constructor; the hot loops only ever
// take it on malformed input, so the fmt cost is irrelevant.
func errCorrupt(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{lz77.ErrCorrupt}, args...)...)
}

// DecodeBitInto decodes the whole block straight from the Huffman bitstream
// into dst, whose length must be the block's uncompressed size. The encoder
// writes sub-blocks back to back into one bitstream, so the sequential fused
// decoder ignores sub-block boundaries and decodes NumSeqs sequences from
// bit zero. sc may be nil, in which case a pooled scratch is used. Output is
// byte-identical to DecodeBit + TokenStream.Decompress on every valid
// stream.
func (b *BitBlock) DecodeBitInto(dst []byte, sc *DecodeScratch) error {
	if sc == nil {
		sc = GetScratch()
		defer PutScratch(sc)
	}
	litBits := maxTreeBits(b.LitLenLengths)
	var err error
	// Unused windows (degenerate single-symbol trees only) become a bare
	// length-flag entry: codeLen 0, so the literal loop needs no per-symbol
	// validity branch; the once-per-sequence check after the loop catches it.
	sc.lit, err = huffman.FillTable(sc.lit, b.LitLenLengths, litBits, entryLenFlag, packLitLen)
	if err != nil {
		return errCorrupt("literal/length tree: %v", err)
	}
	var offTab []uint32
	var offMask uint64
	if anyNonZero(b.OffLengths) {
		sc.off, err = huffman.FillTable(sc.off, b.OffLengths, maxTreeBits(b.OffLengths), 0, packOff)
		if err != nil {
			return errCorrupt("offset tree: %v", err)
		}
		offTab, offMask = sc.off, uint64(len(sc.off)-1)
	}
	var totalBits int64
	for _, v := range b.SubBits {
		totalBits += v
	}
	if totalBits > int64(len(b.Payload))*8 {
		return errCorrupt("sub-block bits exceed payload")
	}
	// Every sequence ends in a length symbol of at least one bit. Without
	// this bound a lying sequence count keeps the loops below spinning on
	// empty sequences long after the payload ran out (the cursor reads
	// zeros past the end and reports the overrun only when asked).
	if int64(b.NumSeqs) > int64(len(b.Payload))*8 {
		return errCorrupt("%d sequences exceed payload", b.NumSeqs)
	}

	c := bitio.NewCursor(b.Payload, 0)
	pos := 0
	if litBits <= pairTableBits {
		sc.pair = buildPairTable(sc.pair, sc.lit)
		pos, err = decodeSeqsPair(dst, c, b.NumSeqs, sc.pair, offTab, offMask)
	} else {
		pos, err = decodeSeqsSingle(dst, c, b.NumSeqs, sc.lit, uint64(len(sc.lit)-1), offTab, offMask)
	}
	if err != nil {
		return err
	}
	if pos != len(dst) {
		return errCorrupt("decompressed %d bytes, header says %d", pos, len(dst))
	}
	return nil
}

// decodeSeqsPair is the fused sequence loop over the pair-merged table.
// Worst-case consumption per refill: three 13-bit lookups plus 16 length
// extra bits = 55 of the guaranteed 56.
func decodeSeqsPair(dst []byte, c bitio.Cursor, nSeqs int, litTab []uint32, offTab []uint32, offMask uint64) (int, error) {
	const litMask = uint64(1)<<pairTableBits - 1
	pos := 0
	for n := 0; n < nSeqs; n++ {
		// Literal run, terminated by a length symbol: up to three lookups —
		// up to six literals — per refill.
		var e uint32
	litrun:
		for {
			c.Refill()
			e = litTab[c.Window(litMask)]
			c.Skip(uint(e & 15))
			if e&entryPairFlag != 0 {
				if uint(pos)+2 > uint(len(dst)) {
					return pos, errCorrupt("output overrun at seq %d", n)
				}
				dst[pos] = byte(e >> 8)
				dst[pos+1] = byte(e >> 16)
				pos += 2
			} else if e&entryLenFlag != 0 {
				break litrun
			} else {
				if uint(pos) >= uint(len(dst)) {
					return pos, errCorrupt("output overrun at seq %d", n)
				}
				dst[pos] = byte(e >> 8)
				pos++
			}
			e = litTab[c.Window(litMask)]
			c.Skip(uint(e & 15))
			if e&entryPairFlag != 0 {
				if uint(pos)+2 > uint(len(dst)) {
					return pos, errCorrupt("output overrun at seq %d", n)
				}
				dst[pos] = byte(e >> 8)
				dst[pos+1] = byte(e >> 16)
				pos += 2
			} else if e&entryLenFlag != 0 {
				break litrun
			} else {
				if uint(pos) >= uint(len(dst)) {
					return pos, errCorrupt("output overrun at seq %d", n)
				}
				dst[pos] = byte(e >> 8)
				pos++
			}
			e = litTab[c.Window(litMask)]
			c.Skip(uint(e & 15))
			if e&entryPairFlag != 0 {
				if uint(pos)+2 > uint(len(dst)) {
					return pos, errCorrupt("output overrun at seq %d", n)
				}
				dst[pos] = byte(e >> 8)
				dst[pos+1] = byte(e >> 16)
				pos += 2
			} else if e&entryLenFlag != 0 {
				break litrun
			} else {
				if uint(pos) >= uint(len(dst)) {
					return pos, errCorrupt("output overrun at seq %d", n)
				}
				dst[pos] = byte(e >> 8)
				pos++
			}
		}
		if e&15 == 0 {
			return pos, errCorrupt("invalid lit/len code in seq %d", n)
		}
		matchLen := e >> 13
		if eb := uint(e>>8) & 31; eb > 0 {
			matchLen += uint32(c.Bits(eb))
		}
		if matchLen == 0 {
			continue
		}
		if offTab == nil {
			return pos, errCorrupt("match present but block has no offset tree")
		}
		c.Refill()
		e = offTab[c.Window(offMask)]
		c.Skip(uint(e & 15))
		if e&15 == 0 {
			return pos, errCorrupt("invalid offset code in seq %d", n)
		}
		off := e >> 9
		if eb := uint(e>>4) & 31; eb > 0 {
			off += uint32(c.Bits(eb))
		}
		if off == 0 || int(off) > pos || int(matchLen) > len(dst)-pos {
			return pos, errCorrupt("offset %d len %d at seq %d (pos %d of %d)",
				off, matchLen, n, pos, len(dst))
		}
		pos = lz77.CopyWithin(dst, pos, int(off), int(matchLen))
	}
	if c.Overrun() {
		return pos, errCorrupt("bitstream overrun")
	}
	return pos, nil
}

// decodeSeqsSingle is the fallback for trees deeper than pairTableBits
// (CWL 14–15): two single-symbol lookups per refill (2·15+16 ≤ 56).
func decodeSeqsSingle(dst []byte, c bitio.Cursor, nSeqs int, litTab []uint32, litMask uint64, offTab []uint32, offMask uint64) (int, error) {
	pos := 0
	for n := 0; n < nSeqs; n++ {
		var e uint32
	litrun:
		for {
			c.Refill()
			e = litTab[c.Window(litMask)]
			c.Skip(uint(e & 15))
			if e&entryLenFlag != 0 {
				break litrun
			}
			if uint(pos) >= uint(len(dst)) {
				return pos, errCorrupt("output overrun at seq %d", n)
			}
			dst[pos] = byte(e >> 8)
			pos++
			e = litTab[c.Window(litMask)]
			c.Skip(uint(e & 15))
			if e&entryLenFlag != 0 {
				break litrun
			}
			if uint(pos) >= uint(len(dst)) {
				return pos, errCorrupt("output overrun at seq %d", n)
			}
			dst[pos] = byte(e >> 8)
			pos++
		}
		if e&15 == 0 {
			return pos, errCorrupt("invalid lit/len code in seq %d", n)
		}
		matchLen := e >> 13
		if eb := uint(e>>8) & 31; eb > 0 {
			matchLen += uint32(c.Bits(eb))
		}
		if matchLen == 0 {
			continue
		}
		if offTab == nil {
			return pos, errCorrupt("match present but block has no offset tree")
		}
		c.Refill()
		e = offTab[c.Window(offMask)]
		c.Skip(uint(e & 15))
		if e&15 == 0 {
			return pos, errCorrupt("invalid offset code in seq %d", n)
		}
		off := e >> 9
		if eb := uint(e>>4) & 31; eb > 0 {
			off += uint32(c.Bits(eb))
		}
		if off == 0 || int(off) > pos || int(matchLen) > len(dst)-pos {
			return pos, errCorrupt("offset %d len %d at seq %d (pos %d of %d)",
				off, matchLen, n, pos, len(dst))
		}
		pos = lz77.CopyWithin(dst, pos, int(off), int(matchLen))
	}
	if c.Overrun() {
		return pos, errCorrupt("bitstream overrun")
	}
	return pos, nil
}

// DecodeByteInto decodes a Byte-variant payload of numSeqs sequences straight
// into dst (length = the block's uncompressed size), with no intermediate
// token stream and no allocations. Output is byte-identical to DecodeByte +
// TokenStream.Decompress.
func DecodeByteInto(dst, payload []byte, numSeqs int) error {
	pos, off := 0, 0
	for n := 0; n < numSeqs; n++ {
		p, next, err := ParseSeqByte(payload, off)
		if err != nil {
			return fmt.Errorf("format: seq %d: %w", n, err)
		}
		off = next
		s := p.Seq
		if int(s.LitLen) > len(dst)-pos {
			return errCorrupt("output overrun at seq %d", n)
		}
		pos += copy(dst[pos:], payload[p.LitOff:p.LitOff+int(s.LitLen)])
		if s.MatchLen == 0 {
			continue
		}
		if int(s.Offset) > pos || int(s.MatchLen) > len(dst)-pos {
			return errCorrupt("offset %d len %d at seq %d (pos %d of %d)",
				s.Offset, s.MatchLen, n, pos, len(dst))
		}
		pos = lz77.CopyWithin(dst, pos, int(s.Offset), int(s.MatchLen))
	}
	if off != len(payload) {
		return errCorrupt("%d trailing payload bytes", len(payload)-off)
	}
	if pos != len(dst) {
		return errCorrupt("decompressed %d bytes, header says %d", pos, len(dst))
	}
	return nil
}
