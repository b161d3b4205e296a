package format

import (
	"encoding/binary"
	"fmt"

	"gompresso/internal/bitio"
	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
)

// BitBlock is the encoded form of one Gompresso/Bit data block: two
// canonical trees (paper Fig. 3: literal tree and match-distance tree), the
// per-sub-block size list that lets decoder lanes seek independently, and
// the concatenated sub-block bitstreams.
type BitBlock struct {
	LitLenLengths []uint8 // LitLenSyms code lengths (0 = unused symbol)
	OffLengths    []uint8 // OffSyms code lengths; all-zero if the block has no matches
	SubBits       []int64 // compressed size in bits of each sub-block
	SubLits       []int32 // literal bytes produced by each sub-block (format extension: lets decode lanes write literals at exact offsets)
	Payload       []byte
	NumSeqs       int
	SeqsPerSub    int
}

// DefaultSeqsPerSub is the paper's sub-block granularity (§V: "we split the
// sequence stream into sub-blocks that are 16 sequences long").
const DefaultSeqsPerSub = 16

// EncodeScratch holds what EncodeBit builds anew for every block — the two
// histograms, code-length arrays and code tables, the sub-block size lists
// and the bit buffer — so that an encoder reusing one across blocks allocates
// none of them again. It is DecodeScratch's counterpart on the write side.
// The zero value is ready to use.
type EncodeScratch struct {
	litLenFreq [LitLenSyms]int64
	offFreq    [OffSyms]int64
	litLenLens [LitLenSyms]uint8
	offLens    [OffSyms]uint8
	litCodes   [LitLenSyms]huffman.Code
	offCodes   [OffSyms]huffman.Code
	buf        []byte // payload plus the slack word stores may touch
	blk        BitBlock
}

// The emitter gathers bits LSB-first in a 64-bit accumulator held in
// registers. flushBits stores the whole word at the write position but
// advances past its complete bytes only, so each store overwrites the
// unfinished tail of the one before and may touch up to wordSlack bytes past
// the payload's last byte.
const wordSlack = 8

func putCode(acc uint64, nbits uint, c huffman.Code) (uint64, uint) {
	return acc | uint64(c.Bits)<<nbits, nbits + uint(c.Len)
}

func flushBits(buf []byte, pos int, acc uint64, nbits uint) (int, uint64, uint) {
	binary.LittleEndian.PutUint64(buf[pos:], acc)
	return pos + int(nbits>>3), acc >> (nbits &^ 7), nbits & 7
}

// EncodeBit Huffman-encodes a token stream into sub-blocks of seqsPerSub
// sequences, with codeword lengths limited to cwl bits.
func EncodeBit(ts *lz77.TokenStream, cwl, seqsPerSub int) (*BitBlock, error) {
	return new(EncodeScratch).EncodeBit(ts, cwl, seqsPerSub)
}

// EncodeBit is the package-level EncodeBit into the scratch's own storage:
// the returned block is valid until the next call.
func (sc *EncodeScratch) EncodeBit(ts *lz77.TokenStream, cwl, seqsPerSub int) (*BitBlock, error) {
	if cwl <= 0 {
		cwl = huffman.DefaultCWL
	}
	if seqsPerSub <= 0 {
		seqsPerSub = DefaultSeqsPerSub
	}
	// Histogram pass, which also totals the extra bits so that the payload
	// can be sized exactly.
	sc.litLenFreq, sc.offFreq = [LitLenSyms]int64{}, [OffSyms]int64{}
	var litTotal, extraBits int64
	hasMatches := false
	for i := range ts.Seqs {
		s := ts.Seqs[i]
		if s.MatchLen > uint32(MaxLenValue) {
			return nil, fmt.Errorf("format: match length %d exceeds bit-encoding maximum", s.MatchLen)
		}
		litTotal += int64(s.LitLen)
		sym, eb, _ := LenSym(s.MatchLen)
		sc.litLenFreq[sym]++
		extraBits += int64(eb)
		if s.MatchLen > 0 {
			if s.Offset == 0 || s.Offset > uint32(MaxOffValue) {
				return nil, fmt.Errorf("format: seq %d offset %d out of range", i, s.Offset)
			}
			osym, oeb, _ := OffSym(s.Offset)
			sc.offFreq[osym]++
			extraBits += int64(oeb)
			hasMatches = true
		}
	}
	if litTotal != int64(len(ts.Literals)) {
		return nil, fmt.Errorf("format: sequences cover %d literal bytes, stream has %d", litTotal, len(ts.Literals))
	}
	for _, b := range ts.Literals {
		sc.litLenFreq[b]++
	}

	totalBits := extraBits
	// buildTree fills codes (an array of the scratch, so nothing is
	// allocated) and lengths from freq, and adds the tree's share of the
	// payload to totalBits.
	buildTree := func(codes []huffman.Code, lengths []uint8, freq []int64, tree string) error {
		err := huffman.BuildLengthsInto(lengths, freq, cwl)
		if err == nil {
			_, err = huffman.FillCodes(codes, lengths, cwl)
		}
		if err != nil {
			return fmt.Errorf("format: %s tree: %w", tree, err)
		}
		for s, f := range freq {
			if f > 0 && lengths[s] == 0 {
				return fmt.Errorf("format: %s tree: symbol %d has no code", tree, s)
			}
			totalBits += f * int64(lengths[s])
		}
		return nil
	}
	if err := buildTree(sc.litCodes[:], sc.litLenLens[:], sc.litLenFreq[:], "literal/length"); err != nil {
		return nil, err
	}
	sc.offLens = [OffSyms]uint8{}
	if hasMatches {
		if err := buildTree(sc.offCodes[:], sc.offLens[:], sc.offFreq[:], "offset"); err != nil {
			return nil, err
		}
	}

	// Encoding pass, recording per-sub-block bit sizes and literal counts.
	// Between flushes at most 7 leftover bits plus three codes (3×15), or a
	// code and its extra bits (15+20), gather in acc: under 64.
	nbytes := int((totalBits + 7) / 8)
	if cap(sc.buf) < nbytes+wordSlack {
		sc.buf = make([]byte, nbytes+wordSlack)
	}
	buf := sc.buf[:nbytes+wordSlack]
	var acc uint64
	var nbits uint
	pos := 0
	litCodes, offCodes := &sc.litCodes, &sc.offCodes
	lit := ts.Literals
	subBits, subLits := sc.blk.SubBits[:0], sc.blk.SubLits[:0]
	var startBits int64
	for base := 0; base < len(ts.Seqs); base += seqsPerSub {
		var subLitN int32
		for _, s := range ts.Seqs[base:min(base+seqsPerSub, len(ts.Seqs))] {
			run := lit[:s.LitLen]
			lit = lit[s.LitLen:]
			subLitN += int32(s.LitLen)
			for ; len(run) >= 3; run = run[3:] {
				acc, nbits = putCode(acc, nbits, litCodes[run[0]])
				acc, nbits = putCode(acc, nbits, litCodes[run[1]])
				acc, nbits = putCode(acc, nbits, litCodes[run[2]])
				pos, acc, nbits = flushBits(buf, pos, acc, nbits)
			}
			for _, b := range run {
				acc, nbits = putCode(acc, nbits, litCodes[b])
			}
			pos, acc, nbits = flushBits(buf, pos, acc, nbits)
			sym, eb, extra := LenSym(s.MatchLen)
			acc, nbits = putCode(acc, nbits, litCodes[sym])
			acc, nbits = acc|uint64(extra)<<nbits, nbits+eb
			if s.MatchLen > 0 {
				pos, acc, nbits = flushBits(buf, pos, acc, nbits)
				osym, oeb, oextra := OffSym(s.Offset)
				acc, nbits = putCode(acc, nbits, offCodes[osym])
				acc, nbits = acc|uint64(oextra)<<nbits, nbits+oeb
			}
			pos, acc, nbits = flushBits(buf, pos, acc, nbits)
		}
		endBits := int64(pos)*8 + int64(nbits)
		subBits = append(subBits, endBits-startBits)
		subLits = append(subLits, subLitN)
		startBits = endBits
	}
	if startBits != totalBits {
		return nil, fmt.Errorf("format: internal: wrote %d bits, code lengths promise %d", startBits, totalBits)
	}
	sc.blk = BitBlock{
		LitLenLengths: sc.litLenLens[:],
		OffLengths:    sc.offLens[:],
		SubBits:       subBits,
		SubLits:       subLits,
		Payload:       buf[:nbytes],
		NumSeqs:       len(ts.Seqs),
		SeqsPerSub:    seqsPerSub,
	}
	return &sc.blk, nil
}

// SubDecodeStats reports the work one sub-block decode performed, for the
// kernel cost model.
type SubDecodeStats struct {
	Symbols   int // Huffman table lookups
	ExtraBits int // extra-bit reads
}

// DecodeSubBlock decodes nSeqs sequences from the bitstream window
// [bitOff, bitOff+bitLen) of payload. Literals are appended to lits; the
// sequences are appended to seqs. Both slices are returned.
func DecodeSubBlock(payload []byte, bitOff, bitLen int64, litDec, offDec *huffman.Decoder,
	nSeqs int, lits []byte, seqs []lz77.Seq) ([]byte, []lz77.Seq, SubDecodeStats, error) {

	var st SubDecodeStats
	r, err := bitio.NewReaderAtBit(payload, bitOff, bitLen)
	if err != nil {
		return lits, seqs, st, fmt.Errorf("format: sub-block window: %w", err)
	}
	for n := 0; n < nSeqs; n++ {
		var s lz77.Seq
		for {
			sym, err := litDec.Decode(r)
			if err != nil {
				return lits, seqs, st, fmt.Errorf("format: literal/length decode: %w", err)
			}
			st.Symbols++
			if IsLiteralSym(sym) {
				lits = append(lits, byte(sym))
				s.LitLen++
				continue
			}
			base, eb, ok := LenVal(sym)
			if !ok {
				return lits, seqs, st, fmt.Errorf("format: bad length symbol %d", sym)
			}
			s.MatchLen = base
			if eb > 0 {
				extra, err := r.ReadBits(eb)
				if err != nil {
					return lits, seqs, st, fmt.Errorf("format: length extra bits: %w", err)
				}
				st.ExtraBits += int(eb)
				s.MatchLen += uint32(extra)
			}
			break
		}
		if s.MatchLen > 0 {
			if offDec == nil {
				return lits, seqs, st, fmt.Errorf("format: match present but block has no offset tree")
			}
			osym, err := offDec.Decode(r)
			if err != nil {
				return lits, seqs, st, fmt.Errorf("format: offset decode: %w", err)
			}
			st.Symbols++
			base, eb, ok := OffVal(osym)
			if !ok {
				return lits, seqs, st, fmt.Errorf("format: bad offset symbol %d", osym)
			}
			s.Offset = base
			if eb > 0 {
				extra, err := r.ReadBits(eb)
				if err != nil {
					return lits, seqs, st, fmt.Errorf("format: offset extra bits: %w", err)
				}
				st.ExtraBits += int(eb)
				s.Offset += uint32(extra)
			}
		}
		seqs = append(seqs, s)
	}
	return lits, seqs, st, nil
}

// Decoders builds the block's two LUT decoders from its code-length arrays.
// offDec is nil when the block contains no matches (all-zero offset tree).
func (b *BitBlock) Decoders() (litDec, offDec *huffman.Decoder, err error) {
	litDec, err = huffman.NewDecoder(b.LitLenLengths, maxTreeBits(b.LitLenLengths))
	if err != nil {
		return nil, nil, fmt.Errorf("format: literal/length tree: %w", err)
	}
	if anyNonZero(b.OffLengths) {
		offDec, err = huffman.NewDecoder(b.OffLengths, maxTreeBits(b.OffLengths))
		if err != nil {
			return nil, nil, fmt.Errorf("format: offset tree: %w", err)
		}
	}
	return litDec, offDec, nil
}

// DecodeBit decodes an entire BitBlock sequentially (host reference path).
func (b *BitBlock) DecodeBit(rawLen int) (*lz77.TokenStream, error) {
	litDec, offDec, err := b.Decoders()
	if err != nil {
		return nil, err
	}
	ts := &lz77.TokenStream{RawLen: rawLen}
	bitOff := int64(0)
	remaining := b.NumSeqs
	for i, bl := range b.SubBits {
		n := b.SeqsPerSub
		if n > remaining {
			n = remaining
		}
		ts.Literals, ts.Seqs, _, err = DecodeSubBlock(b.Payload, bitOff, bl, litDec, offDec, n, ts.Literals, ts.Seqs)
		if err != nil {
			return nil, fmt.Errorf("format: sub-block %d: %w", i, err)
		}
		bitOff += bl
		remaining -= n
	}
	if remaining != 0 {
		return nil, fmt.Errorf("format: %d sequences missing from sub-blocks", remaining)
	}
	return ts, nil
}

// maxTreeBits returns the table width needed for a code-length array: the
// largest length present (the encoder's CWL bound).
func maxTreeBits(lengths []uint8) int {
	m := 1
	for _, l := range lengths {
		if int(l) > m {
			m = int(l)
		}
	}
	return m
}

func anyNonZero(lengths []uint8) bool {
	for _, l := range lengths {
		if l != 0 {
			return true
		}
	}
	return false
}
