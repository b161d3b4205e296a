package deflate

import (
	"bytes"
	"compress/gzip"
	"io"
	"sync"
	"testing"

	"gompresso/internal/datagen"
)

// Benchmarks comparing this decoder against compress/gzip on the wiki
// bench corpus. The W1 path must beat the stdlib single-threaded. The
// parallel path pays speculative-decode overhead (16-bit cells, boundary
// probing, one table lookup per byte to resolve) on top of the same kernel,
// so two workers gain far less than 2×: EXPERIMENTS.md "Foreign gzip decode
// (PR 18)" has the measured ratios. On a single-CPU machine Workers > 1
// degrades to the sequential engine (useParallel), so W2 = W1 there.

var (
	gzBenchOnce sync.Once
	gzBenchRaw  []byte
	gzBenchComp []byte
)

func gzBenchData() ([]byte, []byte) {
	gzBenchOnce.Do(func() {
		gzBenchRaw = datagen.WikiXML(8<<20, 1)
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		w.Write(gzBenchRaw)
		w.Close()
		gzBenchComp = buf.Bytes()
	})
	return gzBenchRaw, gzBenchComp
}

func BenchmarkGzipStdlib(b *testing.B) {
	raw, gz := gzBenchData()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
	}
}

func benchOurs(b *testing.B, workers int) {
	raw, gz := gzBenchData()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReaderBytes(nil, gz, FormatGzip, Options{Workers: workers})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			b.Fatal(err)
		}
		r.Close()
	}
}

func BenchmarkGzipW1(b *testing.B) { benchOurs(b, 1) }
func BenchmarkGzipW2(b *testing.B) { benchOurs(b, 2) }
func BenchmarkGzipW4(b *testing.B) { benchOurs(b, 4) }

func benchOneShot(b *testing.B, workers int) {
	raw, gz := gzBenchData()
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := Decompress(gz, FormatGzip, Options{Workers: workers})
		if err != nil || len(out) != len(raw) {
			b.Fatalf("%d bytes, %v", len(out), err)
		}
	}
}

func BenchmarkGzipOneShotW1(b *testing.B) { benchOneShot(b, 1) }
func BenchmarkGzipOneShotW2(b *testing.B) { benchOneShot(b, 2) }

// BenchmarkInflate is the decode kernel alone on one thread — block headers,
// table builds and the bulk and careful loops, no framing, checksum, scan or
// resolve — for both output kinds: bytes through the sequential engine, cells
// through a speculative chunk decode of the same stream from its first block.
// It is what to A/B a change to inflate.go or tables.go with.
func BenchmarkInflate(b *testing.B) {
	const size = 4 << 20
	for _, c := range []struct {
		name string
		raw  []byte
	}{
		{"wiki", datagen.WikiXML(size, 1)},
		{"matrix", datagen.MatrixMarket(size, 1)},
		{"nesting", datagen.Nesting(size, 4, 1)},
	} {
		var buf bytes.Buffer
		w := gzip.NewWriter(&buf)
		w.Write(c.raw)
		w.Close()
		gz := buf.Bytes()
		start, err := parseGzipHeader(gz, 0)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/bytes", func(b *testing.B) {
			// One byte of room past the output lets the engine reach the
			// final end-of-block code, as in ReadAll.
			out := make([]byte, len(c.raw)+1+runSlack)
			var e engine
			defer e.release()
			b.SetBytes(int64(len(c.raw)))
			for i := 0; i < b.N; i++ {
				e.reset(gz, start*8)
				pos, ev := 0, evBoundary
				for ev != evEOS && err == nil {
					pos, ev, err = e.decodeInto(out, pos, len(c.raw)+1)
				}
				if err != nil || !bytes.Equal(out[:pos], c.raw) {
					b.Fatalf("%d bytes, %v", pos, err)
				}
			}
		})
		b.Run(c.name+"/cells", func(b *testing.B) {
			b.SetBytes(int64(len(c.raw)))
			for i := 0; i < b.N; i++ {
				ch := decodeChunk(gz, start*8, -1)
				if ch.err != nil || len(ch.cells) != len(c.raw) || !ch.sawEOS {
					b.Fatalf("%d cells, %v", len(ch.cells), ch.err)
				}
				putCells(ch.cells)
			}
		})
	}
}

// BenchmarkResolve is the resolver's inner loop alone on one marker-dense
// chunk: a speculative decode from a mid-stream block boundary of the wiki
// corpus, whose cells stay mostly markers to the end.
func BenchmarkResolve(b *testing.B) {
	_, gz := gzBenchData()
	t := getTables()
	defer putTables(t)
	start := findCandidate(gz, len(gz)/2, len(gz)/2, t)
	if start < 0 {
		b.Fatal("no block boundary in the second half of the stream")
	}
	c := decodeChunk(gz, start, start+8*DefaultChunkSize)
	if c.err != nil {
		b.Fatal(c.err)
	}
	markers := 0
	for _, v := range c.cells {
		markers += int(v >> 15)
	}
	var lut [1 << 16]byte
	dst := make([]byte, len(c.cells))
	b.SetBytes(int64(len(dst)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resolveCells(dst, c.cells, &lut)
	}
	b.ReportMetric(float64(markers)/float64(len(c.cells)), "marker-share")
}
