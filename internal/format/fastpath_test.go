package format

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/lz77"
	"gompresso/internal/race"
)

// fastPathSource is n bytes of a few repeating words with short random runs
// in between: matches and literal runs both.
func fastPathSource(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	words := []string{"block", "warp", "decode", "huffman", "gompresso", " the ", "<tag>", "\n"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		if rng.Intn(20) == 0 {
			raw := make([]byte, rng.Intn(30))
			rng.Read(raw)
			b.Write(raw)
		}
	}
	return b.Bytes()[:n]
}

// fastPathBlock builds one encoded Bit block plus its expected output.
func fastPathBlock(t testing.TB, n int, seed int64) (*BitBlock, []byte) {
	t.Helper()
	src := fastPathSource(n, seed)
	ts, err := lz77.Parse(src, lz77.Options{})
	if err != nil {
		t.Fatal(err)
	}
	blk, err := EncodeBit(ts, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	return blk, src
}

// bitOracle decodes blk the reference way — DecodeBit into a token stream,
// then TokenStream.Decompress — through the fuzz oracle, which shares no
// decode loop with DecodeBitInto.
func bitOracle(blk *BitBlock, rawLen int) ([]byte, error) {
	h := FileHeader{Variant: VariantBit, SeqsPerSub: uint16(blk.SeqsPerSub)}
	return oracleDecodeBlock(h, &Block{
		RawLen: rawLen, NumSeqs: blk.NumSeqs, Payload: blk.Payload,
		LitLenLengths: blk.LitLenLengths, OffLengths: blk.OffLengths,
		SubBits: blk.SubBits, SubLits: blk.SubLits,
	})
}

// decodeGuarded runs DecodeBitInto on an exactly-sized region in the middle
// of a canary-filled buffer, as a block region sits between its neighbours
// in a shared output, and fails the test if a guard byte on either side
// changed.
func decodeGuarded(t *testing.T, blk *BitBlock, rawLen int) ([]byte, error) {
	t.Helper()
	const guard = 96
	buf := bytes.Repeat([]byte{0xA5}, guard+rawLen+guard)
	dst := buf[guard : guard+rawLen : guard+rawLen]
	err := blk.DecodeBitInto(dst, nil)
	for i := 0; i < guard; i++ {
		if buf[i] != 0xA5 || buf[guard+rawLen+i] != 0xA5 {
			t.Fatalf("DecodeBitInto wrote outside dst, within %d bytes of it", guard)
		}
	}
	return dst, err
}

// skewedBytes draws n bytes with P(k) = 2^-(k+1): a code-length-limited tree
// over them is as deep as the limit allows.
func skewedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		out[i] = byte(bits.TrailingZeros64(rng.Uint64() | 1<<40))
	}
	return out
}

// The fused path must be byte-identical to the reference pipeline.
func TestDecodeBitIntoMatchesReference(t *testing.T) {
	far := datagen.Random(1<<20, 5)
	far = append(far, far[:200<<10]...)
	for _, tc := range []struct {
		name    string
		src     []byte
		lz      lz77.Options
		cwl     int
		litBits int // the lit/len tree must be at least this deep

		lenExtra, offExtra uint // extra bits the longest match and farthest offset must need
	}{
		{name: "1", src: fastPathSource(1, 1)},
		{name: "50", src: fastPathSource(50, 50)},
		{name: "4096", src: fastPathSource(4096, 4096)},
		{name: "100000", src: fastPathSource(100_000, 100_000)},
		// Deeper than the pair table: the careful loop decodes it whole.
		{name: "cwl15", src: skewedBytes(256<<10, 6), cwl: 15, litBits: pairTableBits + 1},
		// 64 KiB matches a MiB back: 16 length and 20 offset extra bits, the
		// most a refill has to cover.
		{name: "long-far", src: far, lz: lz77.Options{MaxMatch: 1 << 16, Window: 1 << 20},
			lenExtra: maxLenExtra, offExtra: maxOffExtra},
	} {
		ts, err := lz77.Parse(tc.src, tc.lz)
		if err != nil {
			t.Fatal(err)
		}
		var lenExtra, offExtra uint
		for _, s := range ts.Seqs {
			_, eb, _ := LenSym(s.MatchLen)
			lenExtra = max(lenExtra, eb)
			if s.MatchLen > 0 {
				_, eb, _ = OffSym(s.Offset)
				offExtra = max(offExtra, eb)
			}
		}
		if lenExtra < tc.lenExtra || offExtra < tc.offExtra {
			t.Fatalf("%s: matches reach %d length and %d offset extra bits, want %d and %d",
				tc.name, lenExtra, offExtra, tc.lenExtra, tc.offExtra)
		}
		blk, err := EncodeBit(ts, tc.cwl, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := maxTreeBits(blk.LitLenLengths); got < tc.litBits {
			t.Fatalf("%s: lit/len tree is %d bits deep, want ≥ %d", tc.name, got, tc.litBits)
		}
		want, err := bitOracle(blk, len(tc.src))
		if err != nil {
			t.Fatal(err)
		}
		got, err := decodeGuarded(t, blk, len(tc.src))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, tc.src) {
			t.Fatalf("%s: fused output differs from reference", tc.name)
		}
	}
}

// The bulk loop hands over to the careful loop once dst or the payload is
// inside its margin. Every raw length around the output margin, and blocks
// whose whole payload is shorter than the input margin, must decode to the
// oracle's bytes without touching a byte outside dst.
func TestDecodeBitIntoHandOff(t *testing.T) {
	type input struct {
		src []byte
		lz  lz77.Options
	}
	var inputs []input
	for n := 0; n <= 2*bulkOutMargin+1; n++ {
		inputs = append(inputs,
			input{src: fastPathSource(n, int64(n))},
			input{src: datagen.Random(n, uint64(n))}, // all literals: the run ends on the margin
			input{src: datagen.WikiXML(4096+n, 1)})   // the last match ends n bytes past a fixed point
	}
	// A few bytes of payload for a lot of output: tail-only decodes.
	long := lz77.Options{MaxMatch: 1 << 16, Window: 1 << 20}
	inputs = append(inputs,
		input{src: datagen.Zeros(600)},
		input{src: datagen.Zeros(60_000), lz: long},
		input{src: datagen.RepeatPhrase(600, "ab")},
		input{src: datagen.RepeatPhrase(100_000, "bulk loop, careful tail. "), lz: long})
	tailOnly := 0
	for _, in := range inputs {
		ts, err := lz77.Parse(in.src, in.lz)
		if err != nil {
			t.Fatal(err)
		}
		blk, err := EncodeBit(ts, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk.Payload) < bulkInMargin && len(in.src) > bulkOutMargin {
			tailOnly++
		}
		want, err := bitOracle(blk, len(in.src))
		if err != nil {
			t.Fatal(err)
		}
		// Once as encoded, where the payload runs out first, and once with
		// the payload padded past the input margin, where dst does.
		for _, pad := range []int{0, 2 * bulkInMargin} {
			padded := *blk
			padded.Payload = append(bytes.Clone(blk.Payload), make([]byte, pad)...)
			got, err := decodeGuarded(t, &padded, len(in.src))
			if err != nil {
				t.Fatalf("%d raw bytes, %d+%d payload bytes: %v", len(in.src), len(blk.Payload), pad, err)
			}
			if !bytes.Equal(got, want) || !bytes.Equal(got, in.src) {
				t.Fatalf("%d raw bytes, %d+%d payload bytes: fused output differs from reference", len(in.src), len(blk.Payload), pad)
			}
		}
	}
	if tailOnly < 3 {
		t.Fatalf("%d inputs have a payload inside the input margin, want ≥ 3", tailOnly)
	}
}

// A mutated block must fail or decode to exactly what the oracle decodes —
// never panic, never write outside dst: every prefix truncation and every
// single-bit flip of a 4 KiB block, and of a 64 KiB block every truncation,
// every bit of the last 64 payload bytes (where the input margin ends the
// bulk loop) and a sample of the rest — six in ten flips still decode, and
// the oracle takes most of a millisecond for a block this size. The sub-block
// size table is dropped so that a truncated payload reaches the loops instead
// of failing the up-front size check.
func TestDecodeBitIntoTruncationsAndBitFlips(t *testing.T) {
	for _, tc := range []struct {
		n, cutStride, flipStride, denseTail int
	}{
		{n: 4 << 10, cutStride: 1, flipStride: 1},
		{n: 64 << 10, cutStride: 1, flipStride: 211, denseTail: 64 * 8},
	} {
		if race.Enabled || testing.Short() {
			tc.cutStride *= 13
			tc.flipStride *= 13
		}
		src := datagen.Nesting(tc.n, 4, 3)
		ts, err := lz77.Parse(src, lz77.Options{DE: lz77.DEStrict})
		if err != nil {
			t.Fatal(err)
		}
		blk, err := EncodeBit(ts, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		mut := *blk
		mut.SubBits, mut.SubLits = nil, nil
		check := func(what string, i int) {
			got, err := decodeGuarded(t, &mut, tc.n)
			if err != nil {
				return
			}
			want, oerr := bitOracle(&mut, tc.n)
			if oerr != nil || !bytes.Equal(got, want) {
				t.Fatalf("%d-byte block, %s %d: decoded without error, oracle err %v, same bytes %v",
					tc.n, what, i, oerr, bytes.Equal(got, want))
			}
		}
		for cut := 0; cut < len(blk.Payload); cut += tc.cutStride {
			mut.Payload = blk.Payload[:cut]
			check("payload cut at byte", cut)
		}
		flipped := bytes.Clone(blk.Payload)
		mut.Payload = flipped
		nbits := len(flipped) * 8
		for bit := 0; bit < nbits; bit++ {
			if bit%tc.flipStride != 0 && bit < nbits-tc.denseTail {
				continue
			}
			flipped[bit>>3] ^= 1 << (bit & 7)
			check("flipped bit", bit)
			flipped[bit>>3] ^= 1 << (bit & 7)
		}
	}
}

// Steady-state per-block decoding through the fast path must not allocate:
// the scratch holds every table and the output buffer is caller-owned.
func TestDecodeBitIntoZeroAllocs(t *testing.T) {
	blk, src := fastPathBlock(t, 64<<10, 7)
	dst := make([]byte, len(src))
	sc := GetScratch()
	defer PutScratch(sc)
	if err := blk.DecodeBitInto(dst, sc); err != nil { // warm the scratch
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := blk.DecodeBitInto(dst, sc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("fast path allocates %v times per block in steady state, want 0", allocs)
	}
}

// The Byte fused path is allocation-free even without scratch.
func TestDecodeByteIntoZeroAllocs(t *testing.T) {
	_, src := fastPathBlock(t, 64<<10, 8)
	ts, err := lz77.Parse(src, lz77.Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeByte(nil, ts)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(src))
	if err := DecodeByteInto(dst, payload, len(ts.Seqs)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dst, src) {
		t.Fatal("byte fused output differs from input")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := DecodeByteInto(dst, payload, len(ts.Seqs)); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("byte fast path allocates %v times per block, want 0", allocs)
	}
}

// Corrupt payloads must error, never panic or overrun dst.
func TestDecodeBitIntoCorrupt(t *testing.T) {
	blk, src := fastPathBlock(t, 32<<10, 9)
	rng := rand.New(rand.NewSource(3))
	dst := make([]byte, len(src))
	for trial := 0; trial < 200; trial++ {
		mut := &BitBlock{
			LitLenLengths: blk.LitLenLengths,
			OffLengths:    blk.OffLengths,
			SubBits:       blk.SubBits,
			SubLits:       blk.SubLits,
			Payload:       append([]byte(nil), blk.Payload...),
			NumSeqs:       blk.NumSeqs,
			SeqsPerSub:    blk.SeqsPerSub,
		}
		switch trial % 4 {
		case 0: // flip a bit
			i := rng.Intn(len(mut.Payload))
			mut.Payload[i] ^= 1 << rng.Intn(8)
		case 1: // truncate the payload
			mut.Payload = mut.Payload[:rng.Intn(len(mut.Payload))]
		case 2: // inflate the sequence count
			mut.NumSeqs += 1 + rng.Intn(100)
		case 3: // wrong output size
			dst = dst[:rng.Intn(len(src))]
		}
		err := mut.DecodeBitInto(dst, nil)
		// A bit flip may still decode to *something* the size of dst; the
		// point of the trial is that no mutation panics or writes out of
		// bounds. Structural mutations must be detected.
		if trial%4 != 0 && err == nil && len(dst) == len(src) {
			t.Fatalf("trial %d: structural corruption not detected", trial)
		}
		dst = dst[:cap(dst)]
	}
}

// A sequence count the payload cannot hold must be rejected before the
// decode loop: with a tree whose only code is the null-sequence symbol, an
// exhausted cursor reads zeros as empty sequences forever, so a lying
// count would otherwise buy billions of iterations from a few bytes.
func TestDecodeBitIntoBoundsSeqCount(t *testing.T) {
	lengths := make([]uint8, LitLenSyms)
	nullSeq, _, _ := LenSym(0)
	lengths[nullSeq] = 1
	blk := &BitBlock{
		LitLenLengths: lengths,
		OffLengths:    make([]uint8, OffSyms),
		Payload:       []byte{0},
		NumSeqs:       1 << 31,
		SeqsPerSub:    DefaultSeqsPerSub,
	}
	err := blk.DecodeBitInto(nil, nil)
	if !errors.Is(err, lz77.ErrCorrupt) || !strings.Contains(err.Error(), "sequences exceed payload") {
		t.Fatalf("2^31 sequences in a 1-byte payload: err %v", err)
	}
	blk.NumSeqs = 8 // the most eight bits can hold
	if err := blk.DecodeBitInto(nil, nil); err != nil {
		t.Fatalf("8 null sequences in 8 bits: %v", err)
	}
}

// kernelBenchInput is one shape the kernel benchmarks decode.
type kernelBenchInput struct {
	name string
	src  []byte
}

// kernelBenchInputs are the benchmark's three families and the two edge
// shapes, one 256 KiB block each.
func kernelBenchInputs() []kernelBenchInput {
	const n = 256 << 10
	return []kernelBenchInput{
		{"wiki", datagen.WikiXML(n, 1)},
		{"matrix", datagen.MatrixMarket(n, 2)},
		{"nesting", datagen.Nesting(n, 4, 3)},
		{"zeros", datagen.Zeros(n)},
		{"random", datagen.Random(n, 4)},
	}
}

// BenchmarkDecodeBitInto times the decoder users run — one 256 KiB
// DEStrict block at the container defaults, pooled scratch — on the
// benchmark's three families and the two edge shapes, so a kernel change can
// be A/B'd with benchstat in seconds.
func BenchmarkDecodeBitInto(b *testing.B) {
	for _, in := range kernelBenchInputs() {
		b.Run(in.name, func(b *testing.B) {
			ts, err := lz77.Parse(in.src, lz77.Options{DE: lz77.DEStrict})
			if err != nil {
				b.Fatal(err)
			}
			blk, err := EncodeBit(ts, 0, 0)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, len(in.src))
			sc := GetScratch()
			defer PutScratch(sc)
			b.SetBytes(int64(len(in.src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := blk.DecodeBitInto(dst, sc); err != nil {
					b.Fatal(err)
				}
			}
			if !bytes.Equal(dst, in.src) {
				b.Fatal("decoded bytes differ from the input")
			}
		})
	}
}

// BenchmarkDecodeByteInto is the same for the Byte kernel, one thread; zeros
// (offset-1 runs through CopyWithin) and random (match-less sequences of 256
// literals, a memmove each) are the edge guards a change to the bulk loop
// must not slow.
func BenchmarkDecodeByteInto(b *testing.B) {
	for _, in := range kernelBenchInputs() {
		b.Run(in.name, func(b *testing.B) {
			ts, err := lz77.Parse(in.src, lz77.Options{DE: lz77.DEStrict})
			if err != nil {
				b.Fatal(err)
			}
			payload, err := EncodeByte(nil, ts)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]byte, len(in.src))
			b.SetBytes(int64(len(in.src)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := DecodeByteInto(dst, payload, len(ts.Seqs)); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(ts.Seqs))/float64(len(in.src)>>10), "seqs/KB")
			if !bytes.Equal(dst, in.src) {
				b.Fatal("decoded bytes differ from the input")
			}
		})
	}
}
