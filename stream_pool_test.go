package gompresso

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

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

// A stream takes its records and decoded-block buffers from the package pools
// and gives them back, so in a warm process opening, draining and closing a
// Reader allocates a few fixed objects — the source's read buffer, the ordered
// queue — and nothing that grows with the stream. Before the buffers were
// pooled a pipelined stream allocated readahead+1 blocks and records of its
// own: about a third of this container's raw size, half of a 4 MiB one's.
func TestReaderStreamAllocationsBounded(t *testing.T) {
	src, comp, codecs := poolFixture(t)
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
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
		stream() // warm the pools
		const streams = 8
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < streams; i++ {
			stream()
		}
		runtime.ReadMemStats(&after)
		per := (after.TotalAlloc - before.TotalAlloc) / streams
		if limit := uint64(len(src) / 8); per > limit {
			t.Errorf("%s: a warm stream of %d bytes allocates %d, want ≤ %d", name, len(src), per, limit)
		}
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
