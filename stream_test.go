package gompresso_test

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
)

// The streaming Reader must produce byte-identical output to Decompress for
// every variant, via both small Read calls and the WriteTo fast path.
func TestStreamingReader(t *testing.T) {
	src := datagen.WikiXML(1<<20, 3)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		comp := compress(t, src, gompresso.WithVariant(variant), gompresso.WithDE(gompresso.DEStrict), gompresso.WithBlockSize(128<<10))

		// Odd-sized Read calls exercise the intra-block offset logic.
		r, err := newCodec(t).NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		if h := r.Header(); h.Variant != variant || h.RawSize != uint64(len(src)) {
			t.Fatalf("%v: header %+v", variant, h)
		}
		var got bytes.Buffer
		buf := make([]byte, 7777)
		for {
			n, err := r.Read(buf)
			got.Write(buf[:n])
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("%v: read: %v", variant, err)
			}
		}
		if !bytes.Equal(got.Bytes(), src) {
			t.Fatalf("%v: Read stream mismatch", variant)
		}
		r.Close()

		// io.Copy takes the WriteTo path.
		r2, err := newCodec(t).NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		var got2 bytes.Buffer
		n, err := io.Copy(&got2, r2)
		if err != nil {
			t.Fatalf("%v: copy: %v", variant, err)
		}
		if n != int64(len(src)) || !bytes.Equal(got2.Bytes(), src) {
			t.Fatalf("%v: WriteTo stream mismatch (%d bytes)", variant, n)
		}
		r2.Close()
	}
}

func TestStreamingReaderTinyInputs(t *testing.T) {
	for _, size := range []int{0, 1, 3, 100} {
		src := datagen.WikiXML(1<<12, 9)[:size]
		comp := compress(t, src, byteVariant)
		r, err := newCodec(t).NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(out, src) {
			t.Fatalf("size %d: mismatch", size)
		}
	}
}

// A block that fails to decode must never be served. Shrinking the first
// block's declared sequence count (without changing its sub-block count)
// makes its decode fail deterministically — the stream then describes fewer
// bytes than the block header — and the Reader must return the error with
// zero bytes served, not a buffer of undecoded garbage.
func TestStreamingReaderFailedBlockNotServed(t *testing.T) {
	src := datagen.WikiXML(256<<10, 5)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(64<<10))
	h, err := gompresso.Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	const numSeqsOff = 35 + 4 // file header + block RawLen field
	numSeqs := int(uint32(comp[numSeqsOff]) | uint32(comp[numSeqsOff+1])<<8 |
		uint32(comp[numSeqsOff+2])<<16 | uint32(comp[numSeqsOff+3])<<24)
	spb := int(h.SeqsPerSub)
	mutated := numSeqs - 1
	if mutated <= 0 || (mutated+spb-1)/spb != (numSeqs+spb-1)/spb {
		t.Skipf("block layout does not allow a same-sub-count mutation (%d seqs)", numSeqs)
	}
	mut := append([]byte(nil), comp...)
	mut[numSeqsOff] = byte(mutated)
	mut[numSeqsOff+1] = byte(mutated >> 8)
	mut[numSeqsOff+2] = byte(mutated >> 16)
	mut[numSeqsOff+3] = byte(mutated >> 24)

	r, err := newCodec(t).NewReader(bytes.NewReader(mut))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(r)
	if err == nil {
		t.Fatal("mutated stream decoded without error")
	}
	if len(got) != 0 {
		t.Fatalf("reader served %d bytes from a block whose decode failed", len(got))
	}
}

func TestStreamingReaderTruncated(t *testing.T) {
	src := datagen.WikiXML(256<<10, 4)
	comp := compress(t, src, byteVariant)
	for _, cut := range []int{10, 40, len(comp) / 2, len(comp) - 1} {
		r, err := newCodec(t).NewReader(bytes.NewReader(comp[:cut]))
		if err != nil {
			continue // truncated header rejected at construction: fine
		}
		if _, err := io.ReadAll(r); err == nil {
			t.Fatalf("cut %d: truncated stream decoded without error", cut)
		}
	}
}

// The pipelined reader (workers > 1) must be byte-identical to the
// synchronous path for every variant and worker count, via both small Read
// calls and WriteTo.
func TestStreamingReaderParallel(t *testing.T) {
	src := datagen.WikiXML(1<<20, 13)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		comp := compress(t, src, gompresso.WithVariant(variant), gompresso.WithDE(gompresso.DEStrict), gompresso.WithBlockSize(64<<10))
		for _, workers := range []int{2, 4, 64} { // 64: clamped to the block count
			codec := newCodec(t, gompresso.WithWorkers(workers))
			r, err := codec.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			buf := make([]byte, 7777)
			for {
				n, err := r.Read(buf)
				got.Write(buf[:n])
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%v/w%d: read: %v", variant, workers, err)
				}
			}
			if !bytes.Equal(got.Bytes(), src) {
				t.Fatalf("%v/w%d: Read stream mismatch", variant, workers)
			}
			r.Close()

			r2, err := codec.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatal(err)
			}
			var got2 bytes.Buffer
			if _, err := io.Copy(&got2, r2); err != nil {
				t.Fatalf("%v/w%d: copy: %v", variant, workers, err)
			}
			if !bytes.Equal(got2.Bytes(), src) {
				t.Fatalf("%v/w%d: WriteTo stream mismatch", variant, workers)
			}
			r2.Close()
		}
	}
}

// A zero-length Read must return immediately without decoding blocks or
// touching the pipeline.
func TestStreamingReaderZeroLengthRead(t *testing.T) {
	src := datagen.WikiXML(256<<10, 17)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(64<<10))
	for _, workers := range []int{1, 4} {
		r, err := newCodec(t, gompresso.WithWorkers(workers)).NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if n, err := r.Read(nil); n != 0 || err != nil {
				t.Fatalf("workers=%d: Read(nil) = %d, %v", workers, n, err)
			}
		}
		out, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(out, src) {
			t.Fatalf("workers=%d: stream after zero-length reads broken: %v", workers, err)
		}
		// Zero-length reads at EOF are still 0, nil per io.Reader.
		if n, err := r.Read(nil); n != 0 || err != nil {
			t.Fatalf("workers=%d: Read(nil) at EOF = %d, %v", workers, n, err)
		}
		r.Close()
	}
}

// corruptBlock returns comp with block k's sequence count decremented
// without changing its sub-block count, which makes exactly that block's
// decode fail. ok is false when the layout does not allow the mutation.
func corruptBlock(t *testing.T, comp []byte, k int) ([]byte, bool) {
	t.Helper()
	h, err := gompresso.Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	_, idx, err := format.ScanIndex(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	off := int(idx.Offsets[k]) + 4 // RawLen, then NumSeqs
	numSeqs := int(uint32(comp[off]) | uint32(comp[off+1])<<8 |
		uint32(comp[off+2])<<16 | uint32(comp[off+3])<<24)
	spb := int(h.SeqsPerSub)
	mutated := numSeqs - 1
	if mutated <= 0 || (h.Variant == gompresso.VariantBit &&
		(mutated+spb-1)/spb != (numSeqs+spb-1)/spb) {
		return nil, false
	}
	mut := append([]byte(nil), comp...)
	mut[off] = byte(mutated)
	mut[off+1] = byte(mutated >> 8)
	mut[off+2] = byte(mutated >> 16)
	mut[off+3] = byte(mutated >> 24)
	return mut, true
}

// A corrupt block in the middle of the stream must surface its error at
// exactly the block's byte offset: every byte of the preceding blocks is
// served (in order) and nothing from the corrupt block onward.
func TestStreamingReaderMidStreamError(t *testing.T) {
	const blockSize = 64 << 10
	src := datagen.WikiXML(512<<10, 19)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		comp := compress(t, src, gompresso.WithVariant(variant), gompresso.WithBlockSize(blockSize))
		const k = 3
		mut, ok := corruptBlock(t, comp, k)
		if !ok {
			t.Skipf("%v: block %d layout does not allow the mutation", variant, k)
		}
		for _, workers := range []int{1, 4} {
			r, err := newCodec(t, gompresso.WithWorkers(workers)).NewReader(bytes.NewReader(mut))
			if err != nil {
				t.Fatal(err)
			}
			got, err := io.ReadAll(r)
			if err == nil {
				t.Fatalf("%v workers=%d: corrupt stream decoded without error", variant, workers)
			}
			if len(got) != k*blockSize {
				t.Fatalf("%v workers=%d: error surfaced at byte %d, want %d",
					variant, workers, len(got), k*blockSize)
			}
			if !bytes.Equal(got, src[:k*blockSize]) {
				t.Fatalf("%v workers=%d: bytes before the corrupt block differ", variant, workers)
			}
			r.Close()
		}
	}
}

// Closing a pipelined reader mid-stream must stop its fetch goroutine and
// release every in-flight decode — no goroutine may outlive Close (the
// shared pool's persistent workers are part of the warmed baseline).
func TestStreamingReaderCloseMidStreamNoLeak(t *testing.T) {
	src := datagen.WikiXML(1<<20, 23)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(32<<10))
	warm, err := newCodec(t, gompresso.WithWorkers(4)).NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.Copy(io.Discard, warm); err != nil {
		t.Fatal(err)
	}
	warm.Close()
	runtime.GC()
	base := runtime.NumGoroutine()

	for i := 0; i < 10; i++ {
		r, err := newCodec(t, gompresso.WithWorkers(4)).NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		// Consume one byte so the pipeline is demonstrably running, then
		// abandon the stream.
		one := make([]byte, 1)
		if _, err := io.ReadFull(r, one); err != nil {
			t.Fatal(err)
		}
		r.Close()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by closed readers: %d running, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// Seek must land anywhere in the decompressed stream — with or without an
// index trailer, synchronous or pipelined — and reads after a seek must be
// byte-identical to Decompress output.
func TestStreamingReaderSeek(t *testing.T) {
	const blockSize = 64 << 10
	src := datagen.WikiXML(1<<20, 29)
	for _, withIndex := range []bool{false, true} {
		comp := compress(t, src, byteVariant, gompresso.WithBlockSize(blockSize), gompresso.WithIndex(withIndex))
		for _, workers := range []int{1, 4} {
			r, err := newCodec(t, gompresso.WithWorkers(workers)).NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatal(err)
			}
			// Consume a prefix first so Seek starts from a mid-stream state.
			prefix := make([]byte, 1234)
			if _, err := io.ReadFull(r, prefix); err != nil || !bytes.Equal(prefix, src[:1234]) {
				t.Fatalf("index=%v workers=%d: prefix read: %v", withIndex, workers, err)
			}
			targets := []int64{
				0, 1, 500, blockSize - 1, blockSize, blockSize + 1,
				3*blockSize + 12345, int64(len(src)) - 1, int64(len(src)),
			}
			for _, target := range targets {
				got, err := r.Seek(target, io.SeekStart)
				if err != nil || got != target {
					t.Fatalf("index=%v workers=%d: Seek(%d) = %d, %v", withIndex, workers, target, got, err)
				}
				want := src[target:]
				if len(want) > 4096 {
					want = want[:4096]
				}
				buf := make([]byte, len(want))
				if len(want) == 0 {
					if n, err := r.Read(make([]byte, 1)); n != 0 || err != io.EOF {
						t.Fatalf("index=%v workers=%d: read at EOF = %d, %v", withIndex, workers, n, err)
					}
					continue
				}
				if _, err := io.ReadFull(r, buf); err != nil {
					t.Fatalf("index=%v workers=%d: read after Seek(%d): %v", withIndex, workers, target, err)
				}
				if !bytes.Equal(buf, want) {
					t.Fatalf("index=%v workers=%d: bytes after Seek(%d) differ", withIndex, workers, target)
				}
			}
			// Relative whences agree with the decompressed stream position.
			if _, err := r.Seek(100, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			buf50 := make([]byte, 50)
			if _, err := io.ReadFull(r, buf50); err != nil {
				t.Fatal(err)
			}
			if got, err := r.Seek(10, io.SeekCurrent); err != nil || got != 160 {
				t.Fatalf("SeekCurrent: %d, %v", got, err)
			}
			if _, err := io.ReadFull(r, buf50); err != nil || !bytes.Equal(buf50, src[160:210]) {
				t.Fatalf("read after SeekCurrent mismatch (%v)", err)
			}
			if got, err := r.Seek(-10, io.SeekEnd); err != nil || got != int64(len(src))-10 {
				t.Fatalf("SeekEnd: %d, %v", got, err)
			}
			tail, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(tail, src[len(src)-10:]) {
				t.Fatalf("read after SeekEnd mismatch (%v)", err)
			}
			// Rewinding after EOF replays the whole stream.
			if _, err := r.Seek(0, io.SeekStart); err != nil {
				t.Fatal(err)
			}
			all, err := io.ReadAll(r)
			if err != nil || !bytes.Equal(all, src) {
				t.Fatalf("index=%v workers=%d: full replay after Seek(0) broken (%v)", withIndex, workers, err)
			}
			if _, err := r.Seek(-1, io.SeekStart); err == nil {
				t.Fatal("negative seek accepted")
			}
			r.Close()
			if _, err := r.Seek(0, io.SeekStart); err == nil {
				t.Fatal("Seek on a closed reader accepted")
			}
		}
	}

	// A non-seekable source rejects Seek but still streams.
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(blockSize))
	r, err := newCodec(t).NewReader(io.MultiReader(bytes.NewReader(comp)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Seek(0, io.SeekStart); err == nil {
		t.Fatal("Seek accepted on a non-seekable source")
	}
	out, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("non-seekable stream broken: %v", err)
	}
	r.Close()
}

// Streams dropped without Close — Readers that served one byte, Writers that
// submitted one block — leave no goroutine behind at any worker count: the
// pipelines have none of their own, and the decodes and encodes in flight on
// the shared pool finish by themselves.
func TestAbandonedStreamsLeakNothing(t *testing.T) {
	const blockSize = 32 << 10
	src := datagen.WikiXML(1<<20, 37)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(blockSize)) // starts the pool
	runtime.GC()
	base := runtime.NumGoroutine()

	for _, workers := range []int{1, 4} {
		c := newCodec(t, byteVariant, gompresso.WithBlockSize(blockSize), gompresso.WithWorkers(workers))
		for i := 0; i < 10; i++ {
			r, err := c.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := io.ReadFull(r, make([]byte, 1)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.NewWriter(io.Discard).Write(src[:blockSize+1]); err != nil {
				t.Fatal(err)
			}
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked by abandoned streams: %d running, baseline %d", n, base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// goroutines records which goroutines touched a stream's source or sink.
type goroutines struct {
	mu  sync.Mutex
	ids map[string]bool
}

func (g *goroutines) note() {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.ids == nil {
		g.ids = make(map[string]bool)
	}
	g.ids[goid()] = true
}

// goid is the calling goroutine's number, from the head of its stack trace
// ("goroutine 17 [running]:").
func goid() string {
	buf := make([]byte, 64)
	return strings.Fields(string(buf[:runtime.Stack(buf, false)]))[1]
}

// tracedFile is a seekable source or sink that notes the goroutine of every
// call made on it.
type tracedFile struct {
	f *os.File
	g *goroutines
}

func (t tracedFile) Read(p []byte) (int, error)          { t.g.note(); return t.f.Read(p) }
func (t tracedFile) Write(p []byte) (int, error)         { t.g.note(); return t.f.Write(p) }
func (t tracedFile) Seek(o int64, wh int) (int64, error) { t.g.note(); return t.f.Seek(o, wh) }

// The source of a Reader and the sink of a Writer are only ever touched by
// the goroutine that calls the stream — whatever the call and the worker
// count — so neither needs to be safe for anything else.
func TestStreamSourceAndSinkSeeOneGoroutine(t *testing.T) {
	const blockSize = 16 << 10
	src := datagen.WikiXML(512<<10, 41)
	dir := t.TempDir()
	open := func(name string, g *goroutines) tracedFile {
		f, err := os.OpenFile(filepath.Join(dir, name), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return tracedFile{f, g}
	}
	for _, workers := range []int{1, 4} {
		var seen goroutines
		c := newCodec(t, byteVariant, gompresso.WithBlockSize(blockSize), gompresso.WithWorkers(workers))
		raw, comp, back := open("raw", &seen), open("comp", &seen), open("back", &seen)
		if _, err := raw.f.Write(src); err != nil {
			t.Fatal(err)
		}
		raw.f.Seek(0, io.SeekStart)

		w := c.NewWriter(comp)
		if _, err := w.ReadFrom(io.LimitReader(raw, 300<<10)); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Write(src[300<<10:]); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}

		comp.f.Seek(0, io.SeekStart)
		r, err := c.NewReader(comp)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(r, make([]byte, 100<<10)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.Seek(50<<10, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		if n, err := r.WriteTo(back); err != nil || n != int64(len(src)-50<<10) {
			t.Fatalf("workers=%d: WriteTo after Seek: %d bytes, %v", workers, n, err)
		}
		r.Close()

		if len(seen.ids) != 1 || !seen.ids[goid()] {
			t.Errorf("workers=%d: source and sink were touched by goroutines %v; the caller is %s", workers, seen.ids, goid())
		}
	}
}
