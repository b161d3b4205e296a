// Benchmarks regenerating the paper's evaluation, one per figure (see
// DESIGN.md's per-experiment index). Wall-clock numbers measure the
// simulator on the host; each bench also reports the modeled device
// throughput as "sim-GB/s", which is the figure quantity.
package gompresso_test

import (
	"bytes"
	"fmt"
	"io"
	"sync"
	"testing"

	"gompresso"
	"gompresso/internal/baseline"
	"gompresso/internal/datagen"
	"gompresso/internal/figures"
	"gompresso/internal/kernels"
	"gompresso/internal/lz77"
)

const benchSize = 8 << 20

var (
	corpusOnce sync.Once
	wikiData   []byte
	matrixData []byte
)

func corpora() ([]byte, []byte) {
	corpusOnce.Do(func() {
		wikiData = datagen.WikiXML(benchSize, 1)
		matrixData = datagen.MatrixMarket(benchSize, 1)
	})
	return wikiData, matrixData
}

// corpusName keys the compression cache. Keying on the corpus name rather
// than &data[0] means cached entries cannot alias if a corpus is ever
// regenerated at a recycled allocation address.
func corpusName(data []byte) string {
	w, m := corpora()
	switch {
	case len(data) == len(w) && &data[0] == &w[0]:
		return "wiki"
	case len(data) == len(m) && &data[0] == &m[0]:
		return "matrix"
	default:
		return "unknown"
	}
}

// compressFor caches compressed streams per (variant, DE, corpus) so benches
// time decompression only.
var compCache sync.Map

func compressFor(b *testing.B, data []byte, variant gompresso.Variant, de gompresso.DEMode) []byte {
	b.Helper()
	type key struct {
		v      gompresso.Variant
		de     gompresso.DEMode
		corpus string
	}
	k := key{variant, de, corpusName(data)}
	if k.corpus == "unknown" {
		b.Fatalf("compressFor: data is not a named corpus")
	}
	if v, ok := compCache.Load(k); ok {
		return v.([]byte)
	}
	comp := compress(b, data, gompresso.WithVariant(variant), gompresso.WithDE(de))
	compCache.Store(k, comp)
	return comp
}

// benchDevice times simulated-device decompression and reports the modeled
// throughput. It calls internal/kernels directly: the strategy, the PCIe
// accounting and TileTo, which keeps the modelled device as full as the
// paper's 1 GB inputs do, are not Codec options.
func benchDevice(b *testing.B, comp []byte, raw []byte, strat kernels.Strategy, pcie kernels.PCIeMode) {
	b.Helper()
	b.SetBytes(int64(len(raw)))
	var sim float64
	for i := 0; i < b.N; i++ {
		out, ds, err := kernels.Decompress(comp, kernels.Config{Strategy: strat, PCIe: pcie, TileTo: 1 << 30})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && !bytes.Equal(out, raw) {
			b.Fatal("roundtrip mismatch")
		}
		sim = float64(len(out)) / ds.SimSeconds / 1e9
	}
	b.ReportMetric(sim, "sim-GB/s")
}

// Fig. 9a — strategy comparison, Gompresso/Byte, no transfers.
func BenchmarkFig09a_Wikipedia_SC(b *testing.B) {
	w, _ := corpora()
	benchDevice(b, compressFor(b, w, gompresso.VariantByte, gompresso.DEOff), w, kernels.SC, kernels.PCIeNone)
}
func BenchmarkFig09a_Wikipedia_MRR(b *testing.B) {
	w, _ := corpora()
	benchDevice(b, compressFor(b, w, gompresso.VariantByte, gompresso.DEOff), w, kernels.MRR, kernels.PCIeNone)
}
func BenchmarkFig09a_Wikipedia_DE(b *testing.B) {
	w, _ := corpora()
	benchDevice(b, compressFor(b, w, gompresso.VariantByte, gompresso.DEStrict), w, kernels.DE, kernels.PCIeNone)
}
func BenchmarkFig09a_Matrix_SC(b *testing.B) {
	_, m := corpora()
	benchDevice(b, compressFor(b, m, gompresso.VariantByte, gompresso.DEOff), m, kernels.SC, kernels.PCIeNone)
}
func BenchmarkFig09a_Matrix_MRR(b *testing.B) {
	_, m := corpora()
	benchDevice(b, compressFor(b, m, gompresso.VariantByte, gompresso.DEOff), m, kernels.MRR, kernels.PCIeNone)
}
func BenchmarkFig09a_Matrix_DE(b *testing.B) {
	_, m := corpora()
	benchDevice(b, compressFor(b, m, gompresso.VariantByte, gompresso.DEStrict), m, kernels.DE, kernels.PCIeNone)
}

// Fig. 9b — MRR round statistics (the bench reports avg rounds).
func BenchmarkFig09b_Rounds(b *testing.B) {
	w, _ := corpora()
	comp := compressFor(b, w, gompresso.VariantByte, gompresso.DEOff)
	b.SetBytes(int64(len(w)))
	var rounds float64
	for i := 0; i < b.N; i++ {
		_, ds, err := kernels.Decompress(comp, kernels.Config{Strategy: kernels.MRR})
		if err != nil {
			b.Fatal(err)
		}
		rounds = ds.Rounds.AvgRounds()
	}
	b.ReportMetric(rounds, "avg-rounds")
}

// Fig. 9c — nesting-depth sweep endpoints.
func BenchmarkFig09c_Depth1(b *testing.B)  { benchNesting(b, 32) }
func BenchmarkFig09c_Depth32(b *testing.B) { benchNesting(b, 1) }

func benchNesting(b *testing.B, families int) {
	data := datagen.Nesting(benchSize, families, 7)
	comp := compress(b, data, byteVariant, gompresso.WithDE(gompresso.DEOff), gompresso.WithWindow(datagen.NestingWindow))
	benchDevice(b, comp, data, kernels.MRR, kernels.PCIeNone)
}

// Fig. 11 — Dependency Elimination compression cost.
func BenchmarkFig11_Compress_NoDE(b *testing.B) { benchFig11(b, lz77.DEOff) }
func BenchmarkFig11_Compress_DE(b *testing.B)   { benchFig11(b, lz77.DEStrict) }

func benchFig11(b *testing.B, de lz77.DEMode) {
	w, _ := corpora()
	b.SetBytes(int64(len(w)))
	for i := 0; i < b.N; i++ {
		ts, err := lz77.Parse(w, lz77.Options{DE: de, Staleness: lz77.DefaultStaleness, Window: 1<<16 - 1})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(w))/float64(ts.CompressedSizeByte()), "ratio")
		}
	}
}

// Fig. 12 — block-size sweep endpoints, Gompresso/Bit with transfers.
func BenchmarkFig12_Block32KB(b *testing.B)  { benchFig12(b, 32<<10) }
func BenchmarkFig12_Block256KB(b *testing.B) { benchFig12(b, 256<<10) }

func benchFig12(b *testing.B, blockSize int) {
	w, _ := corpora()
	comp := compress(b, w, gompresso.WithDE(gompresso.DEStrict), gompresso.WithBlockSize(blockSize))
	benchDevice(b, comp, w, kernels.DE, kernels.PCIeInOut)
}

// Fig. 13 — Gompresso/Bit vs the measured CPU baselines on this host.
func BenchmarkFig13_GompBit(b *testing.B) {
	w, _ := corpora()
	benchDevice(b, compressFor(b, w, gompresso.VariantBit, gompresso.DEStrict), w, kernels.DE, kernels.PCIeInOut)
}

func BenchmarkFig13_CPU(b *testing.B) {
	w, _ := corpora()
	for _, c := range baseline.All() {
		comp, err := baseline.CompressParallel(c, w, baseline.DefaultParallelBlockSize, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.Name(), func(b *testing.B) {
			b.SetBytes(int64(len(w)))
			for i := 0; i < b.N; i++ {
				if _, err := baseline.DecompressParallel(c, comp, 0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Fig. 14 — energy model over the Fig. 13 Wikipedia points (reported as
// J/GB for the Gompresso/Bit run).
func BenchmarkFig14_Energy(b *testing.B) {
	cfg := figures.Config{DataSize: 4 << 20}
	var joules float64
	for i := 0; i < b.N; i++ {
		rows, err := figures.Fig14(cfg)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.System == "Gomp/Bit (In/Out)" {
				joules = r.JoulesGB
			}
		}
	}
	b.ReportMetric(joules, "J/GB")
}

// Host-engine decompression through the fused fast path, for comparison
// with the baselines.
func BenchmarkHostEngine_Bit(b *testing.B) {
	w, _ := corpora()
	comp := compressFor(b, w, gompresso.VariantBit, gompresso.DEStrict)
	codec := newCodec(b, gompresso.WithEngine(gompresso.EngineHost))
	b.SetBytes(int64(len(w)))
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

// Host-engine decompression of the Byte variant (fused, no token stream).
func BenchmarkHostEngine_Byte(b *testing.B) {
	w, _ := corpora()
	comp := compressFor(b, w, gompresso.VariantByte, gompresso.DEStrict)
	codec := newCodec(b, gompresso.WithEngine(gompresso.EngineHost))
	b.SetBytes(int64(len(w)))
	for i := 0; i < b.N; i++ {
		if _, _, err := codec.Decompress(comp); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStream times opening, draining and closing a Reader over comp.
func benchStream(b *testing.B, codec *gompresso.Codec, comp []byte, rawLen int) {
	b.SetBytes(int64(rawLen))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r, err := codec.NewReader(bytes.NewReader(comp))
		if err != nil {
			b.Fatal(err)
		}
		n, err := io.Copy(io.Discard, r)
		if err != nil || n != int64(rawLen) {
			b.Fatalf("streamed %d bytes, err %v", n, err)
		}
		r.Close()
	}
}

// Streaming decompression through Codec.NewReader at the default budget.
func BenchmarkStreamReader_Bit(b *testing.B) {
	w, _ := corpora()
	benchStream(b, newCodec(b), compressFor(b, w, gompresso.VariantBit, gompresso.DEStrict), len(w))
}

// The streaming pipelines at fixed worker counts over a 4 MiB wiki object —
// the shapes of the benchmark's stream-byte and encode-bit workloads. W1 is
// the branch that runs each block on the caller, W2 goes through the queue.
func BenchmarkStream(b *testing.B) {
	raw := datagen.WikiXML(4<<20, 1)
	for _, v := range []struct {
		name    string
		variant gompresso.Variant
	}{{"byte", gompresso.VariantByte}, {"bit", gompresso.VariantBit}} {
		comp := compress(b, raw, gompresso.WithVariant(v.variant), gompresso.WithDE(gompresso.DEStrict))
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/W%d", v.name, workers), func(b *testing.B) {
				benchStream(b, newCodec(b, gompresso.WithWorkers(workers)), comp, len(raw))
			})
		}
	}
}

func BenchmarkWriter(b *testing.B) {
	raw := datagen.WikiXML(4<<20, 1)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("W%d", workers), func(b *testing.B) {
			codec := newCodec(b, gompresso.WithDE(gompresso.DEStrict), gompresso.WithWorkers(workers))
			b.SetBytes(int64(len(raw)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				w := codec.NewWriter(io.Discard)
				if _, err := w.Write(raw); err != nil {
					b.Fatal(err)
				}
				if err := w.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Random range reads through ReaderAt — the object-store serving shape.
func BenchmarkReaderAt_Bit(b *testing.B) {
	w, _ := corpora()
	comp := compressFor(b, w, gompresso.VariantBit, gompresso.DEStrict)
	ra, err := newCodec(b).NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		b.Fatal(err)
	}
	const span = 64 << 10
	buf := make([]byte, span)
	b.SetBytes(span)
	for i := 0; i < b.N; i++ {
		off := int64(i*31337) % (int64(len(w)) - span)
		if _, err := ra.ReadAt(buf, off); err != nil {
			b.Fatal(err)
		}
	}
}
