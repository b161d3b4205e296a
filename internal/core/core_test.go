package core

import (
	"bytes"
	"math/rand"
	"testing"

	"gompresso/internal/format"
	"gompresso/internal/lz77"
	"gompresso/internal/race"
)

// decompress is the host decode at the default worker count.
func decompress(t testing.TB, comp []byte) ([]byte, error) {
	return DecompressContext(t.Context(), comp, 0)
}

func corpus(n int) []byte {
	rng := rand.New(rand.NewSource(11))
	words := []string{"<page>", "<title>", "compression", "massively", "parallel",
		"the", "of", "and", "block", "warp", "</page>", "reference"}
	var b bytes.Buffer
	for b.Len() < n {
		b.WriteString(words[rng.Intn(len(words))])
		b.WriteByte(' ')
		if rng.Intn(30) == 0 {
			raw := make([]byte, rng.Intn(60))
			rng.Read(raw)
			b.Write(raw)
		}
	}
	return b.Bytes()[:n]
}

func TestRoundtripAllConfigurations(t *testing.T) {
	src := corpus(700_000)
	for _, variant := range []format.Variant{format.VariantByte, format.VariantBit} {
		for _, de := range []lz77.DEMode{lz77.DEOff, lz77.DEStrict, lz77.DELit} {
			comp, cs, err := Compress(src, Options{Variant: variant, DE: de, BlockSize: 128 << 10})
			if err != nil {
				t.Fatalf("%v/%v: %v", variant, de, err)
			}
			if cs.Ratio <= 1 {
				t.Fatalf("%v/%v: ratio %.2f — corpus should compress", variant, de, cs.Ratio)
			}
			out, err := decompress(t, comp)
			if err != nil {
				t.Fatalf("%v/%v: %v", variant, de, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("%v/%v: mismatch", variant, de)
			}
		}
	}
}

func TestEmptyAndTinyInputs(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 100} {
		src := corpus(n)
		for _, variant := range []format.Variant{format.VariantByte, format.VariantBit} {
			comp, _, err := Compress(src, Options{Variant: variant})
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, variant, err)
			}
			out, err := decompress(t, comp)
			if err != nil {
				t.Fatalf("n=%d %v: %v", n, variant, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("n=%d %v: mismatch", n, variant)
			}
		}
	}
}

func TestCompressRejectsBadOptions(t *testing.T) {
	src := []byte("hello")
	bad := []Options{
		{BlockSize: 100},
		{Variant: 9},
		{Variant: format.VariantByte, Window: 1 << 20},
		{CWL: 1},
		{SeqsPerSub: -1},
	}
	for i, o := range bad {
		if _, _, err := Compress(src, o); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDecompressRejectsGarbage(t *testing.T) {
	if _, err := decompress(t, []byte("not a gompresso file")); err == nil {
		t.Fatal("garbage accepted")
	}
	src := corpus(100_000)
	comp, _, err := Compress(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Flip payload bits; decompression must error or produce different
	// output, never panic.
	for _, pos := range []int{len(comp) / 2, len(comp) - 1, 60} {
		bad := append([]byte{}, comp...)
		bad[pos] ^= 0x41
		out, err := decompress(t, bad)
		if err == nil && bytes.Equal(out, src) {
			t.Fatalf("corruption at %d silently ignored", pos)
		}
	}
}

func TestBitBeatsByteRatio(t *testing.T) {
	src := corpus(1 << 20)
	_, byteStats, err := Compress(src, Options{Variant: format.VariantByte})
	if err != nil {
		t.Fatal(err)
	}
	_, bitStats, err := Compress(src, Options{Variant: format.VariantBit})
	if err != nil {
		t.Fatal(err)
	}
	if bitStats.Ratio <= byteStats.Ratio {
		t.Fatalf("Huffman coding should improve ratio: bit %.3f vs byte %.3f",
			bitStats.Ratio, byteStats.Ratio)
	}
}

// The encode core's steady state: parser tables, token buffers, histograms,
// code tables and bit buffer all come from the pooled scratch, so a block
// encoded into a reused record buffer allocates next to nothing — in every
// parse mode, New()'s default DEOff included.
func TestEncodeBlockRecordAllocs(t *testing.T) {
	for _, de := range []lz77.DEMode{lz77.DEOff, lz77.DEStrict, lz77.DELit} {
		o, err := Options{Variant: format.VariantBit, DE: de}.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		src := corpus(o.BlockSize)
		var rec []byte
		encode := func() {
			if rec, _, err = EncodeBlockRecord(rec[:0], src, o); err != nil {
				t.Fatal(err)
			}
		}
		encode()
		if allocs := testing.AllocsPerRun(10, encode); allocs > 4 && !race.Enabled {
			t.Errorf("%v: EncodeBlockRecord made %v allocations per block, want ≤ 4", de, allocs)
		}
	}
}

func BenchmarkCompressBit(b *testing.B)  { benchCompress(b, format.VariantBit) }
func BenchmarkCompressByte(b *testing.B) { benchCompress(b, format.VariantByte) }

func benchCompress(b *testing.B, v format.Variant) {
	src := corpus(4 << 20)
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := Compress(src, Options{Variant: v, DE: lz77.DEStrict}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressHostBit(b *testing.B) {
	src := corpus(4 << 20)
	comp, _, err := Compress(src, Options{Variant: format.VariantBit, DE: lz77.DEStrict})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decompress(b, comp); err != nil {
			b.Fatal(err)
		}
	}
}
