package format

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"gompresso/internal/lz77"
)

// fastPathBlock builds one encoded Bit block plus its expected output.
func fastPathBlock(t testing.TB, n int, seed int64) (*BitBlock, []byte) {
	t.Helper()
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
	src := b.Bytes()[:n]
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

// The fused path must be byte-identical to the reference pipeline.
func TestDecodeBitIntoMatchesReference(t *testing.T) {
	for _, n := range []int{1, 50, 4096, 100_000} {
		blk, src := fastPathBlock(t, n, int64(n))
		ref, err := blk.DecodeBit(n)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Decompress(nil)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, n)
		if err := blk.DecodeBitInto(got, nil); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if !bytes.Equal(got, want) || !bytes.Equal(got, src) {
			t.Fatalf("n=%d: fused output differs from reference", n)
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
	payload, err := EncodeByte(ts)
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
