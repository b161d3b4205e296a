package gompresso_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
)

// writeAll pushes src through w in odd-sized chunks so block boundaries
// never line up with Write calls.
func writeAll(t *testing.T, w *gompresso.Writer, src []byte) {
	t.Helper()
	for len(src) > 0 {
		n := 7777
		if n > len(src) {
			n = len(src)
		}
		if _, err := w.Write(src[:n]); err != nil {
			t.Fatal(err)
		}
		src = src[n:]
	}
}

// The Writer's whole contract: streaming compression is byte-identical to
// one-shot Compress across variants × DE modes × block sizes × worker
// counts × index trailer.
func TestWriterMatchesCompress(t *testing.T) {
	src := datagen.WikiXML(600_000, 7)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		for _, de := range []gompresso.DEMode{gompresso.DEOff, gompresso.DEStrict} {
			for _, blockKB := range []int{16, 128} {
				for _, index := range []bool{false, true} {
					for _, workers := range []int{1, 2, 0} {
						name := fmt.Sprintf("v%d_de%d_b%dK_idx%v_w%d", variant, de, blockKB, index, workers)
						want := compress(t, src, gompresso.WithVariant(variant), gompresso.WithDE(de),
							gompresso.WithBlockSize(blockKB<<10), gompresso.WithIndex(index))
						c, err := gompresso.New(
							gompresso.WithVariant(variant),
							gompresso.WithDE(de),
							gompresso.WithBlockSize(blockKB<<10),
							gompresso.WithIndex(index),
							gompresso.WithWorkers(workers),
						)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						var buf bytes.Buffer
						w := c.NewWriter(&buf)
						writeAll(t, w, src)
						if err := w.Close(); err != nil {
							t.Fatalf("%s: close: %v", name, err)
						}
						if !bytes.Equal(buf.Bytes(), want) {
							t.Fatalf("%s: writer output differs from Compress (%d vs %d bytes)",
								name, buf.Len(), len(want))
						}
						if st := w.Stats(); st.RawSize != int64(len(src)) || st.CompSize != int64(len(want)) {
							t.Fatalf("%s: stats %+v", name, st)
						}
					}
				}
			}
		}
	}
}

// A seekable destination streams records and backpatches the header; the
// file must still be byte-identical to Compress.
func TestWriterSeekableBackpatch(t *testing.T) {
	src := datagen.WikiXML(300_000, 9)
	want := compress(t, src, gompresso.WithVariant(gompresso.VariantBit), gompresso.WithBlockSize(32<<10), gompresso.WithIndex(true))
	c, err := gompresso.New(
		gompresso.WithBlockSize(32<<10),
		gompresso.WithIndex(true),
		gompresso.WithWorkers(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "out.gpz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := c.NewWriter(f)
	if _, err := io.Copy(w, bytes.NewReader(src)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("file differs from Compress (%d vs %d bytes)", len(got), len(want))
	}
}

// Writer output must round-trip through every consumer: Decompress, the
// streaming Reader, and ReaderAt.
func TestWriterRoundTrip(t *testing.T) {
	src := datagen.WikiXML(400_000, 11)
	c, err := gompresso.New(gompresso.WithBlockSize(32<<10), gompresso.WithIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := c.NewWriter(&buf)
	writeAll(t, w, src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	comp := buf.Bytes()

	out, _, err := c.Decompress(comp)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		t.Fatal("Decompress mismatch")
	}

	r, err := c.NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(streamed, src) {
		t.Fatal("Reader mismatch")
	}

	ra, err := c.NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 100_000)
	if _, err := ra.ReadAt(got, 50_001); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src[50_001:150_001]) {
		t.Fatal("ReaderAt mismatch")
	}
}

// Flush drains completed blocks to a seekable destination but never cuts a
// block short: the container format requires non-final blocks to be
// exactly BlockSize, so partial-block bytes stay buffered.
func TestWriterFlushBlockBoundary(t *testing.T) {
	const bs = 16 << 10
	src := datagen.WikiXML(bs*2+bs/2, 13) // 2.5 blocks
	c, err := gompresso.New(gompresso.WithBlockSize(bs), gompresso.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "flush.gpz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := c.NewWriter(f)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// After Flush the two full blocks are on disk; re-encoding them alone
	// predicts the exact file size (header + 2 records, no trailer yet).
	twoBlocks := compress(t, src[:2*bs], gompresso.WithVariant(gompresso.VariantBit), gompresso.WithBlockSize(bs))
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != int64(len(twoBlocks)) {
		t.Fatalf("after Flush: file is %d bytes, want %d (two full block records)",
			st.Size(), len(twoBlocks))
	}
	// The half block must not have been emitted — only Close seals it.
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := compress(t, src, gompresso.WithVariant(gompresso.VariantBit), gompresso.WithBlockSize(bs))
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("flushed-then-closed file differs from Compress")
	}
}

// Input ending exactly on a block boundary leaves a completed block in the
// fill buffer; Flush must push it out rather than wait for the next Write.
func TestWriterFlushExactBoundary(t *testing.T) {
	const bs = 16 << 10
	src := datagen.WikiXML(bs*2, 27) // exactly 2 blocks
	for _, workers := range []int{1, 2} {
		c, err := gompresso.New(gompresso.WithBlockSize(bs), gompresso.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "exact.gpz")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		w := c.NewWriter(f)
		if _, err := w.Write(src); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		want := compress(t, src, gompresso.WithVariant(gompresso.VariantBit), gompresso.WithBlockSize(bs))
		st, err := f.Stat()
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(len(want)) {
			t.Fatalf("workers=%d: after Flush file is %d bytes, want %d (both full blocks)",
				workers, st.Size(), len(want))
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		f.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: sealed file differs from Compress", workers)
		}
	}
}

// An O_APPEND file satisfies io.WriteSeeker but the kernel ignores the
// header backpatch; Close must fail rather than seal a corrupt container.
func TestWriterAppendModeRejected(t *testing.T) {
	src := datagen.WikiXML(64<<10, 33)
	c, err := gompresso.New(gompresso.WithBlockSize(16 << 10))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(t.TempDir(), "a.gpz"),
		os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w := c.NewWriter(f)
	if _, err := w.Write(src); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close sealed a container on an append-mode file")
	}
}

// An empty stream still seals a valid (zero-block) container.
func TestWriterEmpty(t *testing.T) {
	for _, index := range []bool{false, true} {
		c, err := gompresso.New(gompresso.WithIndex(index))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		want := compress(t, nil, gompresso.WithVariant(gompresso.VariantBit), gompresso.WithIndex(index))
		if !bytes.Equal(buf.Bytes(), want) {
			t.Fatalf("index=%v: empty container differs from Compress", index)
		}
		out, _, err := c.Decompress(buf.Bytes())
		if err != nil || len(out) != 0 {
			t.Fatalf("index=%v: decompress empty: %d bytes, %v", index, len(out), err)
		}
	}
}

// Cancelling the codec context mid-write fails the stream with ctx.Err()
// and leaks no goroutines.
func TestWriterContextCancelNoLeak(t *testing.T) {
	src := datagen.WikiXML(1<<20, 17)
	runtime.GC()
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		c, err := gompresso.New(
			gompresso.WithBlockSize(16<<10),
			gompresso.WithWorkers(4),
			gompresso.WithContext(ctx),
		)
		if err != nil {
			t.Fatal(err)
		}
		w := c.NewWriter(io.Discard)
		if _, err := w.Write(src[:64<<10]); err != nil {
			t.Fatal(err)
		}
		cancel()
		// The cancellation must surface from a subsequent call; keep
		// writing until it does.
		var werr error
		for j := 0; j < 100 && werr == nil; j++ {
			_, werr = w.Write(src[:16<<10])
		}
		cerr := w.Close()
		if werr == nil && cerr == nil {
			t.Fatal("cancelled writer reported no error")
		}
		for _, err := range []error{werr, cerr} {
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d > %d at baseline", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// errWriter fails after n bytes.
type errWriter struct{ n int }

func (e *errWriter) Write(p []byte) (int, error) {
	if e.n -= len(p); e.n < 0 {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// A failing destination poisons the stream: the error surfaces from
// Write/Close and stays sticky.
func TestWriterDestinationError(t *testing.T) {
	src := datagen.WikiXML(512<<10, 19)
	c, err := gompresso.New(gompresso.WithBlockSize(16<<10), gompresso.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	// Spool mode defers destination writes to Close, so exercise the
	// streaming path through a pipe-backed... simpler: seekable temp file
	// replaced by errWriter is not seekable either; spool mode still
	// surfaces the error at Close.
	w := c.NewWriter(&errWriter{n: 100})
	if _, err := w.Write(src); err != nil {
		t.Fatalf("spool-mode Write should not touch the destination: %v", err)
	}
	if err := w.Close(); err == nil {
		t.Fatal("Close swallowed the destination error")
	}
	if _, err := w.Write([]byte("x")); err == nil {
		t.Fatal("Write after failed Close succeeded")
	}
}

// A Writer starts no goroutines at any worker count: its encodes run on the
// shared pool (warmed here, so that its workers are part of the baseline) or
// on the caller.
func TestWriterStartsNoGoroutines(t *testing.T) {
	src := datagen.WikiXML(256<<10, 21)
	compress(t, src, gompresso.WithBlockSize(16<<10))
	for _, workers := range []int{1, 4} {
		c, err := gompresso.New(gompresso.WithBlockSize(16<<10), gompresso.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		base := runtime.NumGoroutine()
		var buf bytes.Buffer
		w := c.NewWriter(&buf)
		writeAll(t, w, src)
		if n := runtime.NumGoroutine(); n > base {
			t.Fatalf("workers=%d: writer started goroutines: %d > %d", workers, n, base)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		out, _, err := c.Decompress(buf.Bytes())
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("workers=%d: round trip: %v", workers, err)
		}
	}
}

// The index trailer a Writer emits must be directly usable for seeks.
func TestWriterIndexTrailerSeek(t *testing.T) {
	src := datagen.WikiXML(300_000, 23)
	c, err := gompresso.New(gompresso.WithBlockSize(32<<10), gompresso.WithIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w := c.NewWriter(&buf)
	writeAll(t, w, src)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := format.ParseHeader(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	idx, err := format.ReadIndexAt(bytes.NewReader(buf.Bytes()), int64(buf.Len()), h)
	if err != nil {
		t.Fatalf("writer emitted no parseable index trailer: %v", err)
	}
	if idx.NumBlocks() != w.Stats().Blocks {
		t.Fatalf("trailer describes %d blocks, stats say %d", idx.NumBlocks(), w.Stats().Blocks)
	}
	r, err := c.NewReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Seek(123_456, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 10_000)
	if _, err := io.ReadFull(r, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src[123_456:133_456]) {
		t.Fatal("post-seek bytes differ")
	}
}

// A closed Writer must be garbage at once. Its record-buffer pool used to be
// a field of the Writer, and the runtime's registry of pools kept every
// closed Writer — spool, block buffers and all — reachable for two collection
// cycles, so an encode loop carried a dozen dead Writers at each mark. With
// the collector held off during the cycles and run once after them, the heap
// must come back to where it started however many Writers there were.
func TestWriterClosedIsNotRetained(t *testing.T) {
	c, err := gompresso.New(gompresso.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	raw := datagen.WikiXML(1<<20, 3)
	cycles := func(n int) int64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			w := c.NewWriter(io.Discard)
			if _, err := w.Write(raw); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		return int64(after.HeapAlloc) - int64(before.HeapAlloc)
	}
	cycles(2) // fill the pools
	// A retained Writer held 2 MiB — spool and block buffers; what legitimately
	// stays behind is what the scratch pools hold, under 2 MiB in all.
	const bound = 4 << 20
	for _, n := range []int{8, 32} {
		if grew := cycles(n); grew > bound {
			t.Errorf("%d open/write/close cycles left %d KiB of heap behind, want ≤ %d KiB", n, grew>>10, bound>>10)
		}
	}
}
