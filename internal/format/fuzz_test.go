package format

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/lz77"
)

// oracleDecodeBlock is the reference the single decode entry point is
// checked against: the block entropy-decoded into a lz77.TokenStream
// (DecodeBit / DecodeByte), then resolved by TokenStream.Decompress — no
// decode loop shared with DecodeBlockInto.
//
// The host decoders read a Bit block's sub-blocks as one back-to-back
// bitstream and never consult the sub-block size table (it exists so device
// lanes can seek), so on arbitrary bytes the oracle reads it the same way:
// as one sub-block spanning the payload. On every stream an encoder wrote
// the two readings are the same.
func oracleDecodeBlock(h FileHeader, b *Block) ([]byte, error) {
	var ts *lz77.TokenStream
	var err error
	if h.Variant == VariantByte {
		ts, err = DecodeByte(b.Payload, b.NumSeqs, b.RawLen)
	} else {
		bb := h.bitView(b)
		bb.SubBits, bb.SeqsPerSub = []int64{int64(len(b.Payload)) * 8}, b.NumSeqs
		ts, err = bb.DecodeBit(b.RawLen)
	}
	if err != nil {
		return nil, err
	}
	// Sized before Decompress allocates: a crafted stream can claim far
	// more output than the block's raw length.
	total := 0
	for _, s := range ts.Seqs {
		total += int(s.LitLen) + int(s.MatchLen)
	}
	if total != b.RawLen {
		return nil, fmt.Errorf("oracle: tokens describe %d bytes, block says %d", total, b.RawLen)
	}
	return ts.Decompress(nil)
}

// fuzzContainer compresses src into a container of blockSize-byte blocks.
func fuzzContainer(t testing.TB, variant Variant, src []byte, blockSize int) []byte {
	t.Helper()
	nb := (len(src) + blockSize - 1) / blockSize
	h := FileHeader{
		Variant: variant, DEMode: lz77.DEStrict, CWL: 10, Window: 8 << 10, MinMatch: 4, MaxMatch: 64,
		BlockSize: uint32(blockSize), RawSize: uint64(len(src)), SeqsPerSub: 16, NumBlocks: uint32(nb),
	}
	data := AppendHeader(nil, h)
	for lo := 0; lo < len(src); lo += blockSize {
		raw := src[lo:min(lo+blockSize, len(src))]
		ts, err := lz77.Parse(raw, lz77.Options{DE: lz77.DEStrict})
		if err != nil {
			t.Fatal(err)
		}
		blk := Block{RawLen: len(raw), NumSeqs: len(ts.Seqs)}
		if variant == VariantByte {
			if blk.Payload, err = EncodeByte(nil, ts); err != nil {
				t.Fatal(err)
			}
		} else {
			bb, err := EncodeBit(ts, int(h.CWL), int(h.SeqsPerSub))
			if err != nil {
				t.Fatal(err)
			}
			blk.Payload, blk.LitLenLengths, blk.OffLengths = bb.Payload, bb.LitLenLengths, bb.OffLengths
			blk.SubBits, blk.SubLits = bb.SubBits, bb.SubLits
		}
		data = AppendBlock(data, variant, &blk)
	}
	return data
}

// streamBlocks reads data the way the streaming Reader and ScanIndex do — a
// BlockReader loop to io.EOF — and returns a copy of every block it yielded.
func streamBlocks(data []byte) ([]Block, error) {
	br, err := NewBlockReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	var blocks []Block
	for b := new(Block); ; {
		if err := br.Next(b); err == io.EOF {
			return blocks, nil
		} else if err != nil {
			return blocks, err
		}
		blocks = append(blocks, Block{
			RawLen: b.RawLen, NumSeqs: b.NumSeqs, Payload: bytes.Clone(b.Payload),
			LitLenLengths: slices.Clone(b.LitLenLengths), OffLengths: slices.Clone(b.OffLengths),
			SubBits: slices.Clone(b.SubBits), SubLits: slices.Clone(b.SubLits),
		})
	}
}

// sameBlock reports whether two parsed blocks agree field for field.
func sameBlock(a, b *Block) bool {
	return a.RawLen == b.RawLen && a.NumSeqs == b.NumSeqs && bytes.Equal(a.Payload, b.Payload) &&
		bytes.Equal(a.LitLenLengths, b.LitLenLengths) && bytes.Equal(a.OffLengths, b.OffLengths) &&
		slices.Equal(a.SubBits, b.SubBits) && slices.Equal(a.SubLits, b.SubLits)
}

// FuzzDecodeBlock feeds arbitrary bytes to the container grammar and the
// single decode entry point. ParseFile and a BlockReader loop must agree on
// them — accept or reject, ErrFormat or not, and on accept every field of
// every block. Whatever they accept, DecodeBlockInto must decode to exactly
// the oracle's bytes or fail when the oracle fails — never panic, never
// write past dst.
func FuzzDecodeBlock(f *testing.F) {
	for _, src := range [][]byte{
		datagen.WikiXML(3<<10, 1),
		datagen.MatrixMarket(3<<10, 2),
		datagen.Nesting(3<<10, 4, 3),
	} {
		for _, variant := range []Variant{VariantBit, VariantByte} {
			data := fuzzContainer(f, variant, src, 1<<10)
			f.Add(data)
			flipped := bytes.Clone(data)
			flipped[len(flipped)*2/3] ^= 0x10 // inside a block payload
			f.Add(flipped)
		}
	}
	// One block per family and variant big enough that the corpus starts
	// inside the bulk loops rather than in their tails.
	for _, src := range [][]byte{
		datagen.WikiXML(64<<10, 5),
		datagen.MatrixMarket(64<<10, 6),
		datagen.Nesting(64<<10, 4, 7),
	} {
		f.Add(fuzzContainer(f, VariantBit, src, 64<<10))
		f.Add(fuzzContainer(f, VariantByte, src, 64<<10))
	}
	for _, data := range craftedSubTables(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		file, err := ParseFile(data)
		streamed, serr := streamBlocks(data)
		if (err == nil) != (serr == nil) || errors.Is(err, ErrFormat) != errors.Is(serr, ErrFormat) {
			t.Fatalf("ParseFile: %v; BlockReader: %v", err, serr)
		}
		if err != nil {
			return
		}
		if len(streamed) != len(file.Blocks) {
			t.Fatalf("ParseFile found %d blocks, BlockReader %d", len(file.Blocks), len(streamed))
		}
		for i := range streamed {
			if !sameBlock(&file.Blocks[i], &streamed[i]) {
				t.Fatalf("block %d: ParseFile and BlockReader parsed different fields", i)
			}
		}
		// RawSize equals the sum of the blocks' raw lengths once ParseFile
		// has accepted the container, so this bounds every allocation below.
		if file.Header.RawSize > 16<<20 {
			t.Skip("validated raw size above the fuzz bound")
		}
		const guard = 64
		for i := range file.Blocks {
			b := &file.Blocks[i]
			buf := make([]byte, b.RawLen+guard)
			for j := b.RawLen; j < len(buf); j++ {
				buf[j] = 0xA5
			}
			err := file.Header.DecodeBlockInto(buf[:b.RawLen], b, nil)
			for j := b.RawLen; j < len(buf); j++ {
				if buf[j] != 0xA5 {
					t.Fatalf("block %d: DecodeBlockInto wrote past dst at +%d", i, j-b.RawLen)
				}
			}
			want, oerr := oracleDecodeBlock(file.Header, b)
			if (err == nil) != (oerr == nil) {
				t.Fatalf("block %d: DecodeBlockInto err %v, oracle err %v", i, err, oerr)
			}
			if err == nil && !bytes.Equal(buf[:b.RawLen], want) {
				t.Fatalf("block %d: DecodeBlockInto and the oracle decode different bytes", i)
			}
		}
	})
}

// FuzzEncodeBit drives the fused emitter with token streams parsed from
// arbitrary bytes, through one EncodeScratch for the whole run, as a worker
// reuses it: every block must come back byte for byte from DecodeBlockInto,
// and token for token from the sub-block-at-a-time reference decoder, which
// reads exactly the bit windows SubBits records.
func FuzzEncodeBit(f *testing.F) {
	for i, src := range [][]byte{
		nil,
		[]byte("a"),
		datagen.WikiXML(3<<10, 1),
		datagen.MatrixMarket(3<<10, 2),
		datagen.Nesting(3<<10, 4, 3),
		datagen.Zeros(2 << 10),
		datagen.Random(1<<10, 4),
	} {
		f.Add(src, uint8(i), uint8(7*i))
	}
	sc := new(EncodeScratch)
	f.Fuzz(func(t *testing.T, src []byte, lzBits, bitBits uint8) {
		if len(src) > 1<<20 {
			t.Skip("input above the fuzz bound")
		}
		lz := lz77.Options{DE: lz77.DEMode(lzBits % 3), MinMatch: 3 + int(lzBits>>2&1)}
		if lzBits&8 != 0 {
			lz.MaxMatch, lz.Window = 1<<16, 1<<20 // long matches and far offsets: the extra-bit buckets
		}
		ts, err := lz77.Parse(src, lz)
		if err != nil {
			t.Fatal(err)
		}
		cwl := []int{9, 10, 12, 15}[bitBits&3]
		seqsPerSub := []int{1, 3, 16, 1000}[bitBits>>2&3]
		bb, err := sc.EncodeBit(ts, cwl, seqsPerSub)
		if err != nil {
			t.Fatalf("cwl %d, %d seqs/sub: %v", cwl, seqsPerSub, err)
		}
		if fresh, err := EncodeBit(ts, cwl, seqsPerSub); err != nil || !bytes.Equal(fresh.Payload, bb.Payload) ||
			!bytes.Equal(fresh.LitLenLengths, bb.LitLenLengths) || !bytes.Equal(fresh.OffLengths, bb.OffLengths) {
			t.Fatalf("reused scratch and fresh scratch disagree (err %v)", err)
		}
		back, err := bb.DecodeBit(len(src))
		if err != nil {
			t.Fatalf("reference decode: %v", err)
		}
		if !bytes.Equal(back.Literals, ts.Literals) || !slices.Equal(back.Seqs, ts.Seqs) {
			t.Fatal("reference decode returned different tokens")
		}
		h := FileHeader{Variant: VariantBit, CWL: uint8(cwl), SeqsPerSub: uint16(seqsPerSub)}
		blk := Block{RawLen: len(src), NumSeqs: bb.NumSeqs, Payload: bb.Payload,
			LitLenLengths: bb.LitLenLengths, OffLengths: bb.OffLengths, SubBits: bb.SubBits, SubLits: bb.SubLits}
		dst := make([]byte, len(src))
		if err := h.DecodeBlockInto(dst, &blk, nil); err != nil {
			t.Fatalf("DecodeBlockInto: %v", err)
		}
		if !bytes.Equal(dst, src) {
			t.Fatal("DecodeBlockInto returned different bytes")
		}
	})
}
