package core

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"gompresso/internal/format"
	"gompresso/internal/kernels"
	"gompresso/internal/lz77"
	"gompresso/internal/race"
)

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
			// Host engine.
			out, _, err := Decompress(comp, DecompressOptions{Engine: EngineHost})
			if err != nil {
				t.Fatalf("%v/%v host: %v", variant, de, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("%v/%v host: mismatch", variant, de)
			}
			// Device engine, strategy per parse mode.
			strats := []kernels.Strategy{kernels.SC, kernels.MRR}
			if de != lz77.DEOff {
				strats = append(strats, kernels.DE)
			}
			for _, st := range strats {
				out, ds, err := Decompress(comp, DecompressOptions{Engine: EngineDevice, Strategy: st})
				if err != nil {
					t.Fatalf("%v/%v device/%v: %v", variant, de, st, err)
				}
				if !bytes.Equal(out, src) {
					t.Fatalf("%v/%v device/%v: mismatch", variant, de, st)
				}
				if ds.DeviceSeconds <= 0 {
					t.Fatalf("%v/%v device/%v: no simulated time", variant, de, st)
				}
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
			for _, eng := range []Engine{EngineHost, EngineDevice} {
				out, _, err := Decompress(comp, DecompressOptions{Engine: eng, Strategy: kernels.MRR})
				if err != nil {
					t.Fatalf("n=%d %v eng=%d: %v", n, variant, eng, err)
				}
				if !bytes.Equal(out, src) {
					t.Fatalf("n=%d %v eng=%d: mismatch", n, variant, eng)
				}
			}
		}
	}
}

func TestPCIeModesIncreaseSimTime(t *testing.T) {
	src := corpus(2 << 20)
	comp, _, err := Compress(src, Options{Variant: format.VariantByte, DE: lz77.DEStrict})
	if err != nil {
		t.Fatal(err)
	}
	times := make(map[PCIeMode]float64)
	for _, m := range []PCIeMode{PCIeNone, PCIeIn, PCIeInOut} {
		_, ds, err := Decompress(comp, DecompressOptions{Engine: EngineDevice, Strategy: kernels.DE, PCIe: m})
		if err != nil {
			t.Fatal(err)
		}
		times[m] = ds.SimSeconds
	}
	// Output transfer overlaps compute, so In/Out may equal In when the
	// kernels dominate; it must never be cheaper.
	if !(times[PCIeNone] < times[PCIeIn] && times[PCIeIn] <= times[PCIeInOut]) {
		t.Fatalf("PCIe ordering violated: %v", times)
	}
}

func TestDEStreamDecompressesWithDEStrategy(t *testing.T) {
	src := corpus(512 << 10)
	comp, _, err := Compress(src, Options{DE: lz77.DEStrict, Variant: format.VariantBit})
	if err != nil {
		t.Fatal(err)
	}
	_, ds, err := Decompress(comp, DecompressOptions{Engine: EngineDevice, Strategy: kernels.DE})
	if err != nil {
		t.Fatal(err)
	}
	if ds.Rounds.MaxRounds > 1 {
		t.Fatalf("DE stream needed %d rounds", ds.Rounds.MaxRounds)
	}
}

func TestGreedyStreamNeedsMRR(t *testing.T) {
	src := []byte(strings.Repeat("abcdefghij", 60000))
	comp, cs, err := Compress(src, Options{DE: lz77.DEOff, Variant: format.VariantByte})
	if err != nil {
		t.Fatal(err)
	}
	if cs.GroupsDep == 0 {
		t.Skip("no dependent groups in corpus")
	}
	if _, _, err := Decompress(comp, DecompressOptions{Engine: EngineDevice, Strategy: kernels.DE}); err == nil {
		t.Fatal("DE strategy accepted dependent stream")
	}
	out, ds, err := Decompress(comp, DecompressOptions{Engine: EngineDevice, Strategy: kernels.MRR})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("MRR mismatch")
	}
	if ds.Rounds.MaxRounds < 2 {
		t.Fatalf("expected multi-round resolution, got max %d", ds.Rounds.MaxRounds)
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
	if _, _, err := Decompress([]byte("not a gompresso file"), DecompressOptions{}); err == nil {
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
		out, _, err := Decompress(bad, DecompressOptions{Engine: EngineHost})
		if err == nil && bytes.Equal(out, src) {
			t.Fatalf("corruption at %d silently ignored", pos)
		}
	}
}

func TestHostAndDeviceAgree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1000 + rng.Intn(200_000)
		src := corpus(n)
		variant := format.Variant(seed & 1)
		comp, _, err := Compress(src, Options{Variant: variant, BlockSize: 32 << 10, DE: lz77.DEStrict})
		if err != nil {
			return false
		}
		h, _, err := Decompress(comp, DecompressOptions{Engine: EngineHost})
		if err != nil {
			return false
		}
		d, _, err := Decompress(comp, DecompressOptions{Engine: EngineDevice, Strategy: kernels.DE})
		if err != nil {
			return false
		}
		return bytes.Equal(h, src) && bytes.Equal(d, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

func TestInfo(t *testing.T) {
	src := corpus(100_000)
	comp, _, err := Compress(src, Options{Variant: format.VariantBit, DE: lz77.DELit})
	if err != nil {
		t.Fatal(err)
	}
	h, err := Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	if h.Variant != format.VariantBit || h.DEMode != lz77.DELit || h.RawSize != uint64(len(src)) {
		t.Fatalf("header %+v", h)
	}
	if _, err := Info([]byte("xx")); err == nil {
		t.Fatal("Info accepted garbage")
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
// encoded into a reused record buffer allocates next to nothing. (DEOff is
// outside the guard: its AnalyzeMRR statistic allocates per group.)
func TestEncodeBlockRecordAllocs(t *testing.T) {
	for _, de := range []lz77.DEMode{lz77.DEStrict, lz77.DELit} {
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
		if _, _, err := Decompress(comp, DecompressOptions{Engine: EngineHost}); err != nil {
			b.Fatal(err)
		}
	}
}
