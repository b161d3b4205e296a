package deflate

import (
	"bytes"
	"compress/gzip"
	"io"
	"math"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"gompresso/internal/datagen"
)

// Benchmarks comparing this decoder against compress/gzip on the wiki
// bench corpus. The W1 path must beat the stdlib single-threaded. With more
// workers the serving goroutine decodes spans of the stream in byte mode while
// the others decode chunks further ahead into 16-bit cells (at ~1.45× the
// cost, plus a probe for their start and a table lookup per byte to resolve),
// so the gain is the share of bytes kept off the cell route, not a division by
// the worker count: EXPERIMENTS.md "Foreign gzip: hybrid schedule (PR 22)" has
// the measured ratios and BenchmarkGzipOneShot is what A/Bs a schedule. On a
// single-CPU machine Workers > 1 degrades to the sequential engine
// (useParallel), so W2 = W1 there.

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

// BenchmarkGzipOneShot is Decompress — the gzip-oneshot workload's op — on
// 16 MiB of each corpus family at one and two workers. cores-busy is process
// CPU time over wall time: a schedule that buys its MB/s with a second core's
// worth of speculation shows here, and one that leaves a core idle does too.
func BenchmarkGzipOneShot(b *testing.B) {
	const size = 16 << 20
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
		for _, workers := range []int{1, 2} {
			b.Run(c.name+"/W"+strconv.Itoa(workers), func(b *testing.B) {
				b.SetBytes(size)
				b.ReportAllocs()
				cpu0, t0 := cpuTime(), time.Now()
				for i := 0; i < b.N; i++ {
					out, err := Decompress(gz, FormatGzip, Options{Workers: workers})
					if err != nil || len(out) != size {
						b.Fatalf("%d bytes, %v", len(out), err)
					}
				}
				b.ReportMetric(float64(cpuTime()-cpu0)/float64(time.Since(t0)), "cores-busy")
			})
		}
	}
}

// cpuTime is the user and system CPU time this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

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
				ch := decodeChunk(gz, start*8, math.MaxInt64, getCells(DefaultChunkSize))
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
	c := decodeChunk(gz, start, start+8*DefaultChunkSize, getCells(DefaultChunkSize))
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
