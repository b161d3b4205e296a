package format

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gompresso/internal/lz77"
)

func TestLenSymRoundtrip(t *testing.T) {
	for v := uint32(0); v <= 2048; v++ {
		sym, eb, extra := LenSym(v)
		base, eb2, ok := LenVal(sym)
		if !ok || eb != eb2 {
			t.Fatalf("v=%d: sym %d not invertible (eb %d vs %d)", v, sym, eb, eb2)
		}
		if base+extra != v {
			t.Fatalf("v=%d: base %d + extra %d != v", v, base, extra)
		}
		if extra >= 1<<eb && eb > 0 {
			t.Fatalf("v=%d: extra %d does not fit %d bits", v, extra, eb)
		}
	}
	// Boundary.
	sym, eb, extra := LenSym(MaxLenValue)
	if sym >= LitLenSyms {
		t.Fatalf("max length symbol %d out of alphabet", sym)
	}
	base, _, _ := LenVal(sym)
	if base+extra != MaxLenValue || eb > 16 {
		t.Fatalf("max length maps badly: base %d extra %d eb %d", base, extra, eb)
	}
}

func TestOffSymRoundtrip(t *testing.T) {
	vals := []uint32{1, 2, 7, 8, 9, 255, 256, 4096, 8192, 65535, 65536, MaxOffValue}
	for _, v := range vals {
		sym, eb, extra := OffSym(v)
		if sym >= OffSyms {
			t.Fatalf("v=%d: symbol %d out of alphabet", v, sym)
		}
		base, eb2, ok := OffVal(sym)
		if !ok || eb != eb2 || base+extra != v {
			t.Fatalf("v=%d: sym %d base %d extra %d eb %d/%d ok %v", v, sym, base, extra, eb, eb2, ok)
		}
	}
}

func TestLenValRejectsLiterals(t *testing.T) {
	if _, _, ok := LenVal(100); ok {
		t.Fatal("literal symbol accepted as length")
	}
	if _, _, ok := LenVal(LitLenSyms); ok {
		t.Fatal("out-of-range symbol accepted")
	}
	if _, _, ok := OffVal(-1); ok {
		t.Fatal("negative offset symbol accepted")
	}
	if _, _, ok := OffVal(OffSyms); ok {
		t.Fatal("out-of-range offset symbol accepted")
	}
}

func parseFor(t *testing.T, src []byte, de lz77.DEMode) *lz77.TokenStream {
	t.Helper()
	ts, err := lz77.Parse(src, lz77.Options{DE: de})
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

func TestByteRoundtrip(t *testing.T) {
	src := []byte(strings.Repeat("abcabcabc hello world ", 500))
	ts := parseFor(t, src, lz77.DEOff)
	payload, err := EncodeByte(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeByte(payload, len(ts.Seqs), ts.RawLen)
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.Decompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("byte payload roundtrip mismatch")
	}
}

func TestByteLongLiteralsAndMatches(t *testing.T) {
	// Hand-built stream with extension-triggering lengths.
	lit := bytes.Repeat([]byte{'x'}, 1000)
	ts := &lz77.TokenStream{
		Literals: lit,
		Seqs: []lz77.Seq{
			{LitLen: 1000, MatchLen: 600, Offset: 999},
			{LitLen: 0, MatchLen: 0},
		},
		RawLen: 1600,
	}
	payload, err := EncodeByte(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeByte(payload, 2, 1600)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ts.Decompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := got.Decompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, want) {
		t.Fatal("extension roundtrip mismatch")
	}
}

func TestByteRejectsHugeOffset(t *testing.T) {
	ts := &lz77.TokenStream{
		Literals: []byte("abcd"),
		Seqs:     []lz77.Seq{{LitLen: 4, MatchLen: 4, Offset: 1 << 17}},
		RawLen:   8,
	}
	if _, err := EncodeByte(nil, ts); err == nil {
		t.Fatal("offset beyond 2-byte field accepted")
	}
}

func TestParseSeqByteTruncation(t *testing.T) {
	ts := &lz77.TokenStream{
		Literals: []byte("abcdefgh"),
		Seqs:     []lz77.Seq{{LitLen: 8, MatchLen: 20, Offset: 4}},
		RawLen:   28,
	}
	payload, err := EncodeByte(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(payload); cut++ {
		if _, _, err := ParseSeqByte(payload[:cut], 0); err == nil {
			// Truncations that still parse must at least not read OOB;
			// only full payload should decode the declared seq count.
			if _, err := DecodeByte(payload[:cut], 1, 28); err == nil {
				t.Fatalf("truncated payload (%d bytes) decoded", cut)
			}
		}
	}
}

func TestBitRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	srcs := map[string][]byte{
		"text":   []byte(strings.Repeat("the compressed bitstream of block ", 800)),
		"nolit":  bytes.Repeat([]byte{'z'}, 4096),
		"random": make([]byte, 4096),
		"short":  []byte("x"),
		"empty":  {},
	}
	rng.Read(srcs["random"])
	for name, src := range srcs {
		for _, de := range []lz77.DEMode{lz77.DEOff, lz77.DEStrict} {
			ts := parseFor(t, src, de)
			blk, err := EncodeBit(ts, 10, 16)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, err := blk.DecodeBit(ts.RawLen)
			if err != nil {
				t.Fatalf("%s: decode: %v", name, err)
			}
			out, err := got.Decompress(nil)
			if err != nil {
				t.Fatalf("%s: decompress: %v", name, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("%s (%v): bit roundtrip mismatch", name, de)
			}
			// Sub-block invariants.
			if len(blk.SubBits) != (len(ts.Seqs)+15)/16 {
				t.Fatalf("%s: %d sub-blocks for %d seqs", name, len(blk.SubBits), len(ts.Seqs))
			}
			var totalLits int32
			for _, l := range blk.SubLits {
				totalLits += l
			}
			if int(totalLits) != len(ts.Literals) {
				t.Fatalf("%s: sub-block literal counts sum %d, want %d", name, totalLits, len(ts.Literals))
			}
		}
	}
}

func TestBitSubBlockIndependentSeek(t *testing.T) {
	// Decoding sub-block k via its bit offset must agree with sequential
	// decoding — this is what lets GPU lanes decode sub-blocks in parallel.
	src := []byte(strings.Repeat("independent sub-block seek test 0123456789 ", 400))
	ts := parseFor(t, src, lz77.DEOff)
	blk, err := EncodeBit(ts, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	full, err := blk.DecodeBit(ts.RawLen)
	if err != nil {
		t.Fatal(err)
	}
	litDec, offDec, err := blk.Decoders()
	if err != nil {
		t.Fatal(err)
	}
	bitOff := int64(0)
	seqIdx := 0
	litIdx := 0
	for sb, bl := range blk.SubBits {
		n := blk.SeqsPerSub
		if rem := blk.NumSeqs - seqIdx; n > rem {
			n = rem
		}
		lits, seqs, _, err := DecodeSubBlock(blk.Payload, bitOff, bl, litDec, offDec, n, nil, nil)
		if err != nil {
			t.Fatalf("sub-block %d: %v", sb, err)
		}
		for i, s := range seqs {
			if full.Seqs[seqIdx+i] != s {
				t.Fatalf("sub-block %d seq %d differs", sb, i)
			}
		}
		if !bytes.Equal(lits, full.Literals[litIdx:litIdx+len(lits)]) {
			t.Fatalf("sub-block %d literals differ", sb)
		}
		if int32(len(lits)) != blk.SubLits[sb] {
			t.Fatalf("sub-block %d literal count %d, header says %d", sb, len(lits), blk.SubLits[sb])
		}
		bitOff += bl
		seqIdx += n
		litIdx += len(lits)
	}
}

func TestContainerRoundtrip(t *testing.T) {
	src := []byte(strings.Repeat("container roundtrip block data ", 1000))
	half := len(src) / 2
	blocks := [][]byte{src[:half], src[half:]}

	for _, variant := range []Variant{VariantByte, VariantBit} {
		h := FileHeader{
			Variant: variant, DEMode: lz77.DEStrict, CWL: 10,
			Window: 8 << 10, MinMatch: 4, MaxMatch: 64,
			// Non-final blocks must be exactly full (decoders place block i
			// at i*BlockSize), so the two halves define the block size.
			BlockSize: uint32(half), RawSize: uint64(len(src)),
			SeqsPerSub: 16, NumBlocks: 2,
		}
		data := AppendHeader(nil, h)
		for _, bsrc := range blocks {
			ts := parseFor(t, bsrc, lz77.DEStrict)
			var blk Block
			blk.RawLen = len(bsrc)
			blk.NumSeqs = len(ts.Seqs)
			if variant == VariantByte {
				p, err := EncodeByte(nil, ts)
				if err != nil {
					t.Fatal(err)
				}
				blk.Payload = p
			} else {
				bb, err := EncodeBit(ts, 10, 16)
				if err != nil {
					t.Fatal(err)
				}
				blk.Payload = bb.Payload
				blk.LitLenLengths = bb.LitLenLengths
				blk.OffLengths = bb.OffLengths
				blk.SubBits = bb.SubBits
				blk.SubLits = bb.SubLits
			}
			data = AppendBlock(data, variant, &blk)
		}
		f, err := ParseFile(data)
		if err != nil {
			t.Fatalf("%v: %v", variant, err)
		}
		if f.Header != h {
			t.Fatalf("%v: header mismatch: %+v vs %+v", variant, f.Header, h)
		}
		var out []byte
		for i := range f.Blocks {
			var ts *lz77.TokenStream
			if variant == VariantByte {
				ts, err = DecodeByte(f.Blocks[i].Payload, f.Blocks[i].NumSeqs, f.Blocks[i].RawLen)
			} else {
				ts, err = f.BitBlockOf(i).DecodeBit(f.Blocks[i].RawLen)
			}
			if err != nil {
				t.Fatalf("%v block %d: %v", variant, i, err)
			}
			part, err := ts.Decompress(nil)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, part...)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("%v: container roundtrip mismatch", variant)
		}
	}
}

func TestParseFileCorruption(t *testing.T) {
	src := []byte(strings.Repeat("corrupt me ", 500))
	ts := parseFor(t, src, lz77.DEOff)
	h := FileHeader{
		Variant: VariantBit, CWL: 10, Window: 8 << 10, MinMatch: 4,
		MaxMatch: 64, BlockSize: uint32(len(src)), RawSize: uint64(len(src)),
		SeqsPerSub: 16, NumBlocks: 1,
	}
	bb, err := EncodeBit(ts, 10, 16)
	if err != nil {
		t.Fatal(err)
	}
	blk := Block{
		RawLen: len(src), NumSeqs: len(ts.Seqs), Payload: bb.Payload,
		LitLenLengths: bb.LitLenLengths, OffLengths: bb.OffLengths,
		SubBits: bb.SubBits, SubLits: bb.SubLits,
	}
	good := AppendBlock(AppendHeader(nil, h), VariantBit, &blk)
	if _, err := ParseFile(good); err != nil {
		t.Fatalf("good file rejected: %v", err)
	}

	// Every truncation must be rejected, never panic.
	for cut := 0; cut < len(good); cut += 7 {
		if _, err := ParseFile(good[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad magic.
	bad := append([]byte{}, good...)
	bad[0] = 'X'
	if _, err := ParseFile(bad); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Trailing garbage.
	if _, err := ParseFile(append(append([]byte{}, good...), 0xEE)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	// Wrong raw size.
	bad = append([]byte{}, good...)
	bad[21] ^= 0xff
	if _, err := ParseFile(bad); err == nil {
		t.Fatal("raw size mismatch accepted")
	}
}

// Property: bit encoding of random parses roundtrips and the sub-block size
// list is exact (each sub-block decodes from its computed offset).
func TestQuickBitPayload(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(4096)
		src := make([]byte, n)
		for i := range src {
			if rng.Intn(3) == 0 {
				src[i] = byte(rng.Intn(256))
			} else {
				src[i] = byte('a' + rng.Intn(6))
			}
		}
		ts, err := lz77.Parse(src, lz77.Options{})
		if err != nil {
			return false
		}
		blk, err := EncodeBit(ts, 10, 16)
		if err != nil {
			return false
		}
		got, err := blk.DecodeBit(len(src))
		if err != nil {
			return false
		}
		out, err := got.Decompress(nil)
		return err == nil && bytes.Equal(out, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeBit(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 3000))
	ts, err := lz77.Parse(src, lz77.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := EncodeBit(ts, 10, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeBit(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 3000))
	ts, err := lz77.Parse(src, lz77.Options{})
	if err != nil {
		b.Fatal(err)
	}
	blk, err := EncodeBit(ts, 10, 16)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := blk.DecodeBit(len(src)); err != nil {
			b.Fatal(err)
		}
	}
}
