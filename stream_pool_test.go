package gompresso

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"gompresso/internal/core"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
	"gompresso/internal/race"
)

// poolFixture is a multi-block Byte container and a codec per Reader mode:
// the one-worker loop and the pipeline.
func poolFixture(t *testing.T) (src, comp []byte, codecs map[string]*Codec) {
	t.Helper()
	if race.Enabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	src = datagen.WikiXML(1<<20, 31)
	codecs = make(map[string]*Codec)
	for name, workers := range map[string]int{"sync": 1, "pipelined": 4} {
		c, err := New(WithVariant(VariantByte), WithBlockSize(64<<10), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		codecs[name] = c
	}
	comp, _, err := codecs["sync"].Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	return src, comp, codecs
}

// bytesPerRun returns the bytes one call of fn allocates in a warm process,
// averaged over runs calls — testing.AllocsPerRun's counterpart for bytes.
// Like it, it pins one P and warms up first, here with as many calls as it
// measures; it also holds the collector off, since a collection empties the
// pools. On several Ps a pooled object can sit in another P's private slot,
// out of reach of the P that asks next, and the pool makes a fresh one: on a
// loaded machine that flipped these bounds at random. On one P the pools still
// grow when a preempted task lets another overlap it, or hands a record to a
// bigger block than last time; a warm-up as long as the measurement meets
// those high-water marks first.
func bytesPerRun(runs int, fn func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < runs; i++ {
		fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// A stream takes its records and decoded-block buffers from the package pools
// and gives them back, and frames records straight from its source into them,
// so in a warm process opening, draining and closing a Reader allocates a few
// fixed objects — the Reader, its block reader, the ordered queue — and nothing
// that grows with the stream or with a read buffer. Before the buffers were
// pooled a pipelined stream allocated readahead+1 blocks and records of its
// own, about a third of this container's raw size; before records were framed
// from the source it allocated a 64 KiB read buffer.
func TestReaderStreamAllocationsBounded(t *testing.T) {
	src, comp, codecs := poolFixture(t)
	for name, c := range codecs {
		stream := func() {
			r, err := c.NewReader(bytes.NewReader(comp))
			if err != nil {
				t.Fatal(err)
			}
			if n, err := io.Copy(io.Discard, r); err != nil || n != int64(len(src)) {
				t.Fatalf("%s: streamed %d of %d bytes: %v", name, n, len(src), err)
			}
			r.Close()
		}
		const limit = 8 << 10
		if per := bytesPerRun(8, stream); per > limit {
			t.Errorf("%s: a warm stream of %d bytes allocates %d, want ≤ %d", name, len(src), per, limit)
		}
	}
}

// A foreign stream keeps its whole compressed input in memory. From a source
// that says how much of it is left, the input is read into one buffer of that
// size; grown as it arrived, it cost about twice the input. One worker, so no
// speculative scan starts: whether it would depends on the size the shared
// pool took at its first use in the process.
func TestForeignSpoolAllocatesOnce(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(datagen.WikiXML(4<<20, 47))
	zw.Close()
	c, err := New(WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	per := bytesPerRun(4, func() {
		r, err := c.NewReader(bytes.NewReader(gz.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		r.Close()
	})
	if limit := uint64(gz.Len() + 16<<10); per > limit {
		t.Errorf("opening a stream of a %d-byte .gz allocates %d bytes, want ≤ %d", gz.Len(), per, limit)
	}
}

// pooled counts what a package pool hands out fresh, so that a test can tell
// whether everything made during a scenario came back.
type pooled struct {
	pool  *sync.Pool
	fresh atomic.Int64
}

func watchPool(t *testing.T, pool *sync.Pool) *pooled {
	p := &pooled{pool: pool}
	make := pool.New
	pool.New = func() any {
		p.fresh.Add(1)
		return make()
	}
	t.Cleanup(func() { pool.New = make })
	return p
}

// settle empties the pool and checks the scenario that just ran against it:
// every object the pool made since the last call must be in it again —
// nothing retained — and none twice — nothing Put back by two owners.
func (p *pooled) settle(t *testing.T, what string) {
	t.Helper()
	made := p.fresh.Swap(0)
	seen := make(map[any]bool)
	for {
		v := p.pool.Get()
		if p.fresh.Swap(0) != 0 {
			break // the pool was empty and made this one
		}
		if seen[v] {
			t.Fatalf("%s: an object came out of the pool twice: it was Put twice", what)
		}
		seen[v] = true
	}
	if int64(len(seen)) != made {
		t.Fatalf("%s: the pool made %d objects and got %d back", what, made, len(seen))
	}
}

// However a stream ends — read to the end, closed mid-way, torn down and
// restarted by Seek, stopped by a block that fails to decode — every record
// and every decoded-block buffer it took goes back to its pool exactly once:
// the block the consumer holds, the ones decoded ahead of it, and the ones in
// flight when it stopped.
func TestReaderReturnsPooledBuffers(t *testing.T) {
	src, comp, codecs := poolFixture(t)
	// One P, so that no object can hide in another P's private slot, and no
	// collection while the pools are being counted.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC() // twice: once to the victim cache, once out of it
	bufs, recs := watchPool(t, &blockBufPool), watchPool(t, &recordPool)

	// A payload byte of the container's ninth block set to a token that asks
	// for more literals than the block has left.
	hdr, err := format.ParseHeader(comp[:format.HeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	idx, _, err := format.OpenIndex(bytes.NewReader(comp), int64(len(comp)), hdr)
	if err != nil {
		t.Fatal(err)
	}
	bad := bytes.Clone(comp)
	for i := idx.Offsets[8] + 12; i < idx.Offsets[8]+12+64; i++ {
		bad[i] = 0xFF
	}

	for name, c := range codecs {
		open := func(data []byte) *Reader {
			r, err := c.NewReader(bytes.NewReader(data))
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		readN := func(r *Reader, n int) {
			if _, err := io.ReadFull(r, make([]byte, n)); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
		}
		settle := func(what string) {
			bufs.settle(t, name+": "+what+": block buffers")
			recs.settle(t, name+": "+what+": records")
		}

		r := open(comp)
		if _, err := io.Copy(io.Discard, r); err != nil {
			t.Fatal(err)
		}
		settle("drained, not closed")
		r.Close()
		settle("closed after draining")

		r = open(comp)
		readN(r, 100<<10)
		r.Close()
		r.Close()
		settle("closed mid-stream, twice")

		r = open(comp)
		readN(r, 100<<10)
		if _, err := r.Seek(700<<10, io.SeekStart); err != nil {
			t.Fatal(err)
		}
		settle("torn down by Seek") // nothing is decoded again until the next Read
		readN(r, 10)
		if _, err := r.Seek(701<<10, io.SeekStart); err != nil { // inside the current block
			t.Fatal(err)
		}
		got, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(got, src[701<<10:]) {
			t.Fatalf("%s: read after Seek: %d bytes, err %v", name, len(got), err)
		}
		r.Close()
		settle("closed after Seek")

		r = open(bad)
		if n, err := io.Copy(io.Discard, r); err == nil || n != 8*64<<10 {
			t.Fatalf("%s: corrupt ninth block: streamed %d bytes, err %v", name, n, err)
		}
		r.Close()
		settle("closed after a decode error")
	}
}

// memFile is an in-memory io.WriteSeeker, so that a Writer streams and
// backpatches without a file. Writes past limit bytes fail, when limit > 0.
type memFile struct {
	buf   []byte
	pos   int
	limit int
}

func (m *memFile) Write(p []byte) (int, error) {
	if m.limit > 0 && m.pos+len(p) > m.limit {
		return 0, errors.New("disk full")
	}
	if end := m.pos + len(p); end > len(m.buf) {
		m.buf = append(m.buf, make([]byte, end-len(m.buf))...)
	}
	m.pos += copy(m.buf[m.pos:], p)
	return len(p), nil
}

func (m *memFile) Seek(off int64, whence int) (int64, error) {
	switch whence {
	case io.SeekCurrent:
		off += int64(m.pos)
	case io.SeekEnd:
		off += int64(len(m.buf))
	}
	m.pos = int(off)
	return off, nil
}

// stream hides its destination's Seek: the Writer's spool mode.
type stream struct{ io.Writer }

// However a Writer's stream ends — sealed, failed on its destination,
// cancelled, flushed at a block boundary first, or closed with nothing
// written — every raw block buffer and every record it took goes back to its
// pool exactly once, in both output modes: records as they are written when
// the destination seeks, from the spool at Close when it does not.
func TestWriterReturnsPooledBuffers(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	const bs = 64 << 10
	src := datagen.WikiXML(10*bs+bs/3, 37)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	runtime.GC()
	bufs, recs := watchPool(t, &blockBufPool), watchPool(t, &core.RecordPool)
	dec, err := New()
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		for _, seekable := range []bool{true, false} {
			name := fmt.Sprintf("workers=%d seekable=%v", workers, seekable)
			writer := func(ctx context.Context, limit int) (*Writer, *memFile) {
				c, err := New(WithBlockSize(bs), WithWorkers(workers), WithIndex(true), WithContext(ctx))
				if err != nil {
					t.Fatal(err)
				}
				f := &memFile{limit: limit}
				if seekable {
					return c.NewWriter(f), f
				}
				return c.NewWriter(stream{f}), f
			}
			settle := func(what string) {
				bufs.settle(t, name+": "+what+": block buffers")
				recs.settle(t, name+": "+what+": records")
			}
			ctx := context.Background()

			w, f := writer(ctx, 0)
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			if out, _, err := dec.Decompress(f.buf); err != nil || !bytes.Equal(out, src) {
				t.Fatalf("%s: round trip: %v", name, err)
			}
			settle("a whole stream")

			w, _ = writer(ctx, 3*bs/2)
			w.Write(src) // fails, or leaves the failure to Close
			if err := w.Close(); err == nil {
				t.Fatalf("%s: Close sealed a stream its destination refused", name)
			}
			if _, err := w.Write(src[:1]); err == nil {
				t.Fatalf("%s: Write after a destination error succeeded", name)
			}
			settle("a destination error")

			cctx, cancel := context.WithCancel(ctx)
			w, _ = writer(cctx, 0)
			if _, err := w.Write(src[:5*bs/2]); err != nil {
				t.Fatal(err)
			}
			cancel()
			w.Write(src[5*bs/2:])
			if err := w.Close(); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled stream closed with %v", name, err)
			}
			settle("a cancelled context")

			w, _ = writer(ctx, 0)
			if _, err := w.Write(src[:3*bs]); err != nil {
				t.Fatal(err)
			}
			if err := w.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			settle("Flush at a block boundary")

			w, _ = writer(ctx, 0)
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			settle("Close without a Write")
		}
	}
}

// In a warm process a Writer allocates a few fixed objects per stream — itself,
// its queue, the offsets, the spool's list of records and the header and
// trailer — and nothing that grows with the blocks, even into a sink that
// cannot seek, where the whole compressed stream waits for Close.
func TestWriterSteadyStateAllocations(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	src := datagen.WikiXML(4<<20, 41)
	for _, workers := range []int{1, 2} {
		c, err := New(WithDE(DEStrict), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		sink := stream{io.Discard}
		write := func() {
			w := c.NewWriter(sink)
			if _, err := w.Write(src); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if per := bytesPerRun(4, write); per >= 64<<10 {
			t.Errorf("workers=%d: a warm 4 MiB stream allocates %d bytes, want < %d", workers, per, 64<<10)
		}
	}
}

// Compress encodes into pooled records and allocates the container once, at
// its exact size: in a warm process the call allocates its output and a
// little bookkeeping.
func TestCompressAllocBound(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items on purpose under -race")
	}
	src := datagen.WikiXML(4<<20, 43)
	for _, v := range []Variant{VariantBit, VariantByte} {
		c, err := New(WithVariant(v), WithIndex(true), WithWorkers(2))
		if err != nil {
			t.Fatal(err)
		}
		var out []byte
		got := bytesPerRun(1, func() {
			if out, _, err = c.Compress(src); err != nil {
				t.Fatal(err)
			}
		})
		if cap(out) != len(out) {
			t.Errorf("%v: the container has capacity %d for %d bytes", v, cap(out), len(out))
		}
		if limit := uint64(len(out))*11/10 + 64<<10; got > limit {
			t.Errorf("%v: Compress of %d bytes into %d allocated %d, want ≤ %d", v, len(src), len(out), got, limit)
		}
	}
}
