package format

import (
	"encoding/binary"
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
// pooled DecodeScratch, the bit buffer stays in registers across symbols, and
// match expansion uses chunked copies. A Bit block runs through a bulk loop
// whose bounds are proven once per refill (decodeSeqsBulk) and ends in a
// careful loop that checks every store (decodeSeqsSingle).

// Packed-entry layout shared by the fused tables. Unlike the generic
// huffman.Decoder LUT, entries pre-resolve symbol semantics so the hot loop
// never consults LenVal/OffVal, and the low six bits are everything the bit
// buffer has to give up for the symbol — its extra bits included — so one
// shift consumes it:
//
//	bits 0–5   bits to consume (a pair entry: both codes; a length entry:
//	           code plus extra bits)
//	bit  6     length-symbol flag
//	bit  7     literal-pair flag
//	bits 8–15  literal byte, or first literal of a pair
//	bits 16–23 second literal of a pair
//	bits 8–11  codeLen                 (length flag set)
//	bits 13–30 length base     ≤ 2^16  (length flag set)
//
// Offset-table entries pack the bits to consume (0–5), codeLen (6–9) and the
// offset base ≤ 2^20 (10–30). The extra bits of a length or offset are the
// consumed bits above its codeLen.
const (
	entryBitsMask = 63
	entryLenFlag  = 64
	entryPairFlag = 128
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
	return base<<13 | uint32(codeLen)<<8 | entryLenFlag | (uint32(codeLen) + uint32(eb))
}

func packOff(sym int, codeLen uint8) uint32 {
	base, eb, _ := OffVal(sym)
	return base<<10 | uint32(codeLen)<<6 | (uint32(codeLen) + uint32(eb))
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
		if e1&entryLenFlag == 0 {
			l1 := e1 & entryBitsMask
			e2 := lit[(uint32(w)>>l1)&litMask]
			if l2 := e2 & entryBitsMask; e2&entryLenFlag == 0 && l1+l2 <= pairTableBits {
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

	// The bulk loop decodes while both margins hold; the careful loop takes
	// over at the symbol boundary it stopped on and owns every end-of-block
	// check. Trees deeper than pairTableBits (CWL 14–15) have no pair table
	// and go through the careful loop whole.
	var n, pos int
	var bit int64
	if litBits <= pairTableBits {
		sc.pair = buildPairTable(sc.pair, sc.lit)
		if n, pos, bit, err = decodeSeqsBulk(dst, b.Payload, b.NumSeqs, sc.pair, offTab, offMask); err != nil {
			return err
		}
	}
	c := bitio.NewCursor(b.Payload, bit)
	pos, err = decodeSeqsSingle(dst, c, n, pos, b.NumSeqs, sc.lit, uint64(len(sc.lit)-1), offTab, offMask)
	if err != nil {
		return err
	}
	if pos != len(dst) {
		return errCorrupt("decompressed %d bytes, header says %d", pos, len(dst))
	}
	return nil
}

// Margins of the bulk loop, checked at the top of every sequence and at every
// refill inside a literal run.
//
// bulkOutMargin: the accumulator never holds more than 63 bits and a literal
// byte costs at least one, so at most 63 literal bytes land between two
// checks, plus the one byte a two-byte store overhangs a single literal.
// Matches check their own room.
//
// bulkInMargin: at most two refills follow a check before the next one (the
// checked refill itself and the one before the offset); the first advances
// by up to 8 bytes and the second loads 8 more.
const (
	bulkOutMargin = 64
	bulkInMargin  = 16
)

// Bits a refill must leave before a lookup so that the rest of the sequence
// up to the next refill cannot run the accumulator dry: a pairTableBits
// lit/len code plus 16 length extra bits, and a 15-bit offset code plus 20
// offset extra bits. A refill guarantees 56.
const (
	bulkLitBits = pairTableBits + 16
	bulkOffBits = 15 + 20
)

// refill tops the accumulator up to 56–63 valid bits without a branch: one
// 8-byte load ORed in above the nacc bits already there, next advanced by the
// whole bytes that fit. Re-loading a partially consumed byte ORs identical
// bits. The caller guarantees nacc ≤ 63 and 8 readable bytes at in[next:].
func refill(in []byte, acc uint64, nacc uint, next int) (uint64, uint, int) {
	return acc | binary.LittleEndian.Uint64(in[next:])<<nacc, nacc | 56, next + int(63-nacc)>>3
}

// decodeSeqsBulk is the fused sequence loop over the pair-merged table for
// everything but the end of a block: while dst has bulkOutMargin bytes of
// room and in has bulkInMargin bytes left, nothing below needs a bounds
// decision of its own — refills are one unconditional 8-byte load, a literal
// entry is one two-byte store that advances by one or two, and extra bits are
// masked out of the accumulator whether or not there are any. It returns the
// sequences completed, the output position and the bit offset of the next
// undecoded symbol, which may sit inside sequence n's literal run.
func decodeSeqsBulk(dst, in []byte, nSeqs int, pair, offTab []uint32, offMask uint64) (n, pos int, bit int64, err error) {
	const litMask = 1<<pairTableBits - 1
	litTab := (*[1 << pairTableBits]uint32)(pair)
	outLim, inLim := len(dst)-bulkOutMargin, len(in)-bulkInMargin
	var (
		acc  uint64
		nacc uint
		next int
	)
	for ; n < nSeqs && pos <= outLim && next <= inLim; n++ {
		acc, nacc, next = refill(in, acc, nacc, next)
		e := litTab[acc&litMask]
		for e&entryLenFlag == 0 {
			acc >>= e & entryBitsMask
			nacc -= uint(e & entryBitsMask)
			binary.LittleEndian.PutUint16(dst[pos:], uint16(e>>8))
			pos += 1 + int(e>>7&1)
			if nacc < bulkLitBits {
				if pos > outLim || next > inLim {
					return n, pos, int64(next)*8 - int64(nacc), nil
				}
				acc, nacc, next = refill(in, acc, nacc, next)
			}
			e = litTab[acc&litMask]
		}
		if e&entryBitsMask == 0 {
			return n, pos, 0, errCorrupt("invalid lit/len code in seq %d", n)
		}
		matchLen := int(e>>13) + int(acc&(1<<(e&entryBitsMask)-1)>>(e>>8&15))
		acc >>= e & entryBitsMask
		nacc -= uint(e & entryBitsMask)
		if matchLen == 0 {
			continue
		}
		if offTab == nil {
			return n, pos, 0, errCorrupt("match present but block has no offset tree")
		}
		if nacc < bulkOffBits {
			acc, nacc, next = refill(in, acc, nacc, next)
		}
		e = offTab[acc&offMask]
		if e&entryBitsMask == 0 {
			return n, pos, 0, errCorrupt("invalid offset code in seq %d", n)
		}
		off := int(e>>10) + int(acc&(1<<(e&entryBitsMask)-1)>>(e>>6&15))
		acc >>= e & entryBitsMask
		nacc -= uint(e & entryBitsMask)
		room := len(dst) - pos
		if off == 0 || off > pos || matchLen > room {
			return n, pos, 0, errCorrupt("offset %d len %d at seq %d (pos %d of %d)",
				off, matchLen, n, pos, len(dst))
		}
		if off < 8 || room-matchLen < 16 {
			pos = lz77.CopyWithin(dst, pos, off, matchLen)
			continue
		}
		// off ≥ 8 makes the wild copy exact, and the 16 bytes of room past
		// the match absorb its overshoot.
		wildCopy(dst, pos, dst, pos-off, matchLen)
		pos += matchLen
	}
	return n, pos, int64(next)*8 - int64(nacc), nil
}

// decodeSeqsSingle is the careful loop: it resumes at sequence n, output
// position pos and the cursor's bit offset — which may sit inside sequence
// n's literal run — checks dst on every literal, and reads past the end of
// the payload as zeros, reporting the overrun once at the end. It decodes the
// last bytes of every block and the whole of blocks the bulk loop cannot take.
// Two single-symbol lookups per refill: 2·15 + 16 extra bits ≤ 56.
func decodeSeqsSingle(dst []byte, c bitio.Cursor, n, pos, nSeqs int, litTab []uint32, litMask uint64, offTab []uint32, offMask uint64) (int, error) {
	for ; n < nSeqs; n++ {
		var e uint32
	litrun:
		for {
			c.Refill()
			e = litTab[c.Window(litMask)]
			if e&entryLenFlag != 0 {
				break litrun
			}
			c.Skip(uint(e & entryBitsMask))
			if uint(pos) >= uint(len(dst)) {
				return pos, errCorrupt("output overrun at seq %d", n)
			}
			dst[pos] = byte(e >> 8)
			pos++
			e = litTab[c.Window(litMask)]
			if e&entryLenFlag != 0 {
				break litrun
			}
			c.Skip(uint(e & entryBitsMask))
			if uint(pos) >= uint(len(dst)) {
				return pos, errCorrupt("output overrun at seq %d", n)
			}
			dst[pos] = byte(e >> 8)
			pos++
		}
		if e&entryBitsMask == 0 {
			return pos, errCorrupt("invalid lit/len code in seq %d", n)
		}
		matchLen := e>>13 + uint32(c.Bits(uint(e&entryBitsMask))>>(e>>8&15))
		if matchLen == 0 {
			continue
		}
		if offTab == nil {
			return pos, errCorrupt("match present but block has no offset tree")
		}
		c.Refill()
		e = offTab[c.Window(offMask)]
		if e&entryBitsMask == 0 {
			return pos, errCorrupt("invalid offset code in seq %d", n)
		}
		off := e>>10 + uint32(c.Bits(uint(e&entryBitsMask))>>(e>>6&15))
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

// Margins of the Byte bulk loop, proven before every sequence. A plain
// sequence — both token nibbles below 15, and a match — is three header bytes
// and at most 14 literal and 14 match bytes, so
//
// byteInMargin: token + offset + one 16-byte literal load;
//
// byteOutMargin: a 16-byte literal store at pos and a 16-byte match store at
// most 14 bytes further on.
//
// Both are taken from len, never cap: dst is one block's region of an output
// its neighbours are being decoded into.
const (
	byteInMargin  = 3 + 16
	byteOutMargin = 14 + 16
)

// wildLitMax is the longest literal run the bulk loop copies in 16-byte
// steps; past it a memmove call is the cheaper way to move the bytes.
const wildLitMax = 64

// wildCopy copies n bytes from src[from:] to dst[pos:] in 16-byte steps, each
// two 8-byte loads and stores, at least one step. It reads and writes up to
// 16 bytes past n, so the caller proves that room on both sides. With src
// being dst it is a match copy, exact for offsets of 8 and more: every 8-byte
// load reads bytes finalized before its store.
func wildCopy(dst []byte, pos int, src []byte, from, n int) {
	for end := pos + n; ; from += 16 {
		s, d := src[from:from+16], dst[pos:pos+16]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:]))
		if pos += 16; pos >= end {
			return
		}
	}
}

// DecodeByteInto decodes a Byte-variant payload of numSeqs sequences straight
// into dst (length = the block's uncompressed size), with no intermediate
// token stream and no allocations. Output is byte-identical to DecodeByte +
// TokenStream.Decompress. The bulk loop decodes while both margins hold and
// every sequence is valid; the careful loop takes over at the sequence
// boundary it stopped on and owns every error and the end-of-block checks.
func DecodeByteInto(dst, payload []byte, numSeqs int) error {
	n, pos, off := decodeByteBulk(dst, payload, numSeqs)
	return decodeByteCareful(dst, payload, numSeqs, n, pos, off)
}

// decodeByteBulk decodes sequences while dst has byteOutMargin bytes of room
// and payload byteInMargin bytes left: runs of plain sequences in decodeByteRun
// and, between them, one sequence at a time that has an extended length, no
// match or a near offset — ParseSeqByte reads its header, and its literal run
// and match check their own room for a wild copy and are copied exactly
// without it. It never reports an error: on anything it cannot finish it stops
// in front of the sequence, whatever it already stored past pos being bytes
// the careful loop stores again or rejects. It returns the sequences
// completed, the output position and the payload offset of the next one.
func decodeByteBulk(dst, payload []byte, numSeqs int) (n, pos, off int) {
	for n < numSeqs && len(payload)-off >= byteInMargin && len(dst)-pos >= byteOutMargin {
		// The peek keeps a run of sequences that are not plain (incompressible
		// data is nothing else) from paying a call each to find that out.
		if plainToken(payload[off]) {
			if k, p, rest := decodeByteRun(dst, payload[off:], numSeqs-n, pos); k > 0 {
				n, pos, off = n+k, p, len(payload)-rest
				continue
			}
		}
		p, next, err := ParseSeqByte(payload, off)
		lit, ml := int(p.Seq.LitLen), int(p.Seq.MatchLen)
		if err != nil || lit > len(dst)-pos {
			break
		}
		end := pos + lit
		if lit <= wildLitMax && len(dst)-end >= 16 && len(payload)-next >= 16 {
			wildCopy(dst, pos, payload, p.LitOff, lit)
		} else {
			copy(dst[pos:end], payload[p.LitOff:next])
		}
		if ml != 0 {
			offset, room := int(p.Seq.Offset), len(dst)-end
			if offset > end || ml > room {
				break
			}
			if offset < 8 || room-ml < 16 {
				lz77.CopyWithin(dst, end, offset, ml)
			} else {
				wildCopy(dst, end, dst, end-offset, ml)
			}
		}
		n, pos, off = n+1, end+ml, next
	}
	return n, pos, off
}

// plainToken reports whether a sequence's token byte says all there is to say
// about its lengths: no extension bytes, and a match, so a 2-byte offset.
func plainToken(tok byte) bool { return tok&15 != 15 && tok>>4 != 15 && tok>>4 != 0 }

// decodeByteRun is the bulk loop's inner loop, a leaf so that everything it
// touches stays in registers: at most left plain sequences with offsets of 8
// and more from the front of in to dst[pos:], while both margins hold. Each is
// one token load, one offset load, one unconditional 16-byte literal copy and
// one unconditional 16-byte match copy as two 8-byte pairs — exact because the
// second load follows the first store. It stops in front of the first
// sequence that is anything else — an invalid offset included — and returns the
// sequences completed, the output position and how much of in is left.
func decodeByteRun(dst, in []byte, left, pos int) (k, npos, rest int) {
	for ; k < left && len(in) >= byteInMargin && len(dst)-pos >= byteOutMargin && plainToken(in[0]); k++ {
		lit, ml := int(in[0]&15), int(in[0]>>4)
		offset, end := int(in[1])|int(in[2])<<8, pos+lit
		if offset < 8 || offset > end {
			break
		}
		out := dst[pos : pos+byteOutMargin]
		*(*[16]byte)(out) = *(*[16]byte)(in[3:])
		s, d := dst[end-offset:end-offset+16], out[lit:lit+16]
		binary.LittleEndian.PutUint64(d, binary.LittleEndian.Uint64(s))
		binary.LittleEndian.PutUint64(d[8:], binary.LittleEndian.Uint64(s[8:]))
		pos, in = end+ml, in[3+lit:]
	}
	return k, pos, len(in)
}

// decodeByteCareful is the per-sequence loop: it resumes at sequence n, output
// position pos and payload offset off, checks every copy, and decodes the last
// bytes of every block.
func decodeByteCareful(dst, payload []byte, numSeqs, n, pos, off int) error {
	for ; n < numSeqs; n++ {
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
