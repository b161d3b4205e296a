package format

import (
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
)

// craftBitContainer builds a valid single-block Bit container for mutation
// tests.
func craftBitContainer(t *testing.T) ([]byte, []byte) {
	t.Helper()
	src := []byte(strings.Repeat("crafted container data ", 200))
	ts := parseFor(t, src, lz77.DEStrict)
	bb, err := EncodeBit(ts, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	h := FileHeader{
		Variant: VariantBit, DEMode: lz77.DEStrict, CWL: 10,
		Window: 8 << 10, MinMatch: 4, MaxMatch: 64,
		BlockSize: uint32(len(src)), RawSize: uint64(len(src)),
		SeqsPerSub: 16, NumBlocks: 1,
	}
	data := AppendHeader(nil, h)
	blk := Block{
		RawLen: len(src), NumSeqs: bb.NumSeqs, Payload: bb.Payload,
		LitLenLengths: bb.LitLenLengths, OffLengths: bb.OffLengths,
		SubBits: bb.SubBits, SubLits: bb.SubLits,
	}
	data = AppendBlock(data, VariantBit, &blk)
	if _, err := ParseFile(data); err != nil {
		t.Fatalf("crafted container does not parse: %v", err)
	}
	return data, src
}

// A header claiming SeqsPerSub = 0 must be rejected, not divide by zero.
func TestParseFileZeroSeqsPerSub(t *testing.T) {
	data, _ := craftBitContainer(t)
	binary.LittleEndian.PutUint16(data[29:], 0)
	if _, err := ParseFile(data); err == nil {
		t.Fatal("SeqsPerSub=0 container accepted")
	}
}

// A short non-final block would make block placement at i*BlockSize wrong;
// both parsers must reject it.
func TestParseFileShortNonFinalBlock(t *testing.T) {
	src := []byte(strings.Repeat("short block data ", 500))
	half := len(src) / 2
	h := FileHeader{
		Variant: VariantByte, Window: 8 << 10, MinMatch: 4, MaxMatch: 64,
		BlockSize: uint32(half + 7), RawSize: uint64(len(src)), NumBlocks: 2,
		SeqsPerSub: 16,
	}
	data := AppendHeader(nil, h)
	for _, part := range [][]byte{src[:half], src[half:]} {
		ts := parseFor(t, part, lz77.DEOff)
		p, err := EncodeByte(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		data = AppendBlock(data, VariantByte, &Block{RawLen: len(part), NumSeqs: len(ts.Seqs), Payload: p})
	}
	if _, err := ParseFile(data); err == nil {
		t.Fatal("container with short non-final block accepted")
	}
}

// A lying sub-block count must fail fast on the input-size bound instead of
// attempting a multi-gigabyte preallocation.
func TestParseFileHugeSubBlockCount(t *testing.T) {
	data, src := craftBitContainer(t)
	// Rewrite NumSeqs (block header field 2) and the sub-block count to a
	// huge matching pair: with SeqsPerSub=16, numSubs = ceil(NumSeqs/16).
	blockOff := HeaderSize
	huge := uint32(1) << 30
	binary.LittleEndian.PutUint32(data[blockOff+4:], huge)
	subCountOff := blockOff + 12 + huffman.LengthsSize(LitLenSyms) + huffman.LengthsSize(OffSyms)
	binary.LittleEndian.PutUint32(data[subCountOff:], huge/16)
	_ = src
	start := time.Now()
	if _, err := ParseFile(data); err == nil {
		t.Fatal("huge sub-block count accepted")
	}
	if time.Since(start) > 2*time.Second {
		t.Fatal("rejection took implausibly long — likely attempted the allocation")
	}
}
