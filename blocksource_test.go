package gompresso_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
)

// blockFixture is one kind of block source under the conformance table:
// compressed bytes, the raw stream they decode to, how to open them for
// random access, where the blocks lie, and how to break exactly one block.
type blockFixture struct {
	name    string
	comp    []byte
	raw     []byte
	open    func(t *testing.T, c *gompresso.Codec, comp io.ReaderAt) *gompresso.ReaderAt
	span    func(i int) (start, n int64)
	corrupt func(t *testing.T, k int) []byte
}

func blockFixtures(t *testing.T) []blockFixture {
	t.Helper()
	const blockSize = 16 << 10
	raw := datagen.WikiXML(1<<20, 1234)
	native := func(name string, variant gompresso.Variant, index bool) blockFixture {
		comp := compress(t, raw, gompresso.WithVariant(variant), gompresso.WithBlockSize(blockSize), gompresso.WithIndex(index))
		return blockFixture{
			name: name, comp: comp, raw: raw,
			open: func(t *testing.T, c *gompresso.Codec, src io.ReaderAt) *gompresso.ReaderAt {
				ra, err := c.NewReaderAt(src, int64(len(comp)))
				if err != nil {
					t.Fatalf("%s: NewReaderAt: %v", name, err)
				}
				return ra
			},
			span: func(i int) (int64, int64) {
				start := int64(i) * blockSize
				return start, min(blockSize, int64(len(raw))-start)
			},
			corrupt: func(t *testing.T, k int) []byte {
				mut, ok := corruptBlock(t, comp, k)
				if !ok {
					t.Skip("block layout does not allow the mutation")
				}
				return mut
			},
		}
	}
	gz, gzRaw, idx := foreignFixture(t, len(raw), blockSize)
	if idx.NumChunks() < 8 {
		t.Fatalf("only %d chunks; fixture too coarse to test", idx.NumChunks())
	}
	return []blockFixture{
		native("bit-indexed", gompresso.VariantBit, true),
		native("byte-indexed", gompresso.VariantByte, true),
		native("bit-scanned", gompresso.VariantBit, false),
		{
			name: "gzip-seekindex", comp: gz, raw: gzRaw,
			open: func(t *testing.T, c *gompresso.Codec, src io.ReaderAt) *gompresso.ReaderAt {
				ra, err := c.NewReaderAtWithIndex(src, int64(len(gz)), idx)
				if err != nil {
					t.Fatalf("gzip-seekindex: NewReaderAtWithIndex: %v", err)
				}
				return ra
			},
			span: func(i int) (int64, int64) { return idx.ChunkStart(i), idx.ChunkLen(i) },
			corrupt: func(t *testing.T, k int) []byte {
				// Chunks begin at a DEFLATE block header: BFINAL, then two
				// BTYPE bits. Setting both selects the reserved block type,
				// which fails chunk k's decode at its first symbol and
				// touches no bit an earlier chunk consumes.
				mut := append([]byte(nil), gz...)
				for _, bit := range []int64{idx.Checkpoints[k].Bit + 1, idx.Checkpoints[k].Bit + 2} {
					mut[bit>>3] |= 1 << (bit & 7)
				}
				return mut
			},
		},
	}
}

// codecFor builds a codec with or without a decoded-block cache.
func codecFor(t *testing.T, cached bool, opts ...gompresso.Option) *gompresso.Codec {
	t.Helper()
	if cached {
		opts = append(opts, gompresso.WithCache(8<<20))
	}
	c, err := gompresso.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// readVia serves [off, off+n) through ReadAt or WriteRangeTo and returns
// the bytes produced with the call's error.
func readVia(ra *gompresso.ReaderAt, ctx context.Context, writeTo bool, off, n int64) ([]byte, error) {
	if writeTo {
		var sink bytes.Buffer
		w, err := ra.WriteRangeTo(ctx, &sink, off, n)
		if w != int64(sink.Len()) {
			return nil, fmt.Errorf("WriteRangeTo returned %d, wrote %d", w, sink.Len())
		}
		return sink.Bytes(), err
	}
	p := make([]byte, n)
	m, err := ra.ReadAt(p, off)
	return p[:m], err
}

// TestBlockSourceConformance holds every block source to one contract:
// {indexed Bit, indexed Byte, trailer-less GPZ1, gzip through a SeekIndex}
// × {cache, no cache} × {ReadAt, WriteRangeTo} over ranges placed against
// the source's own block boundaries, byte-compared with the raw input.
func TestBlockSourceConformance(t *testing.T) {
	for _, fx := range blockFixtures(t) {
		size := int64(len(fx.raw))
		bStart, bLen := fx.span(1)
		ranges := []struct {
			name   string
			off, n int64
		}{
			{"zero-length", bStart + 5, 0},
			{"inside-one-block", bStart + 5, 100},
			{"exactly-one-block", bStart, bLen},
			{"straddling-a-boundary", bStart + bLen - 3, 6},
			{"several-windows", bStart + 7, 5 * bLen},
			{"last-byte", size - 1, 1},
			{"clamped-past-end", size - 50, 200},
			{"starting-past-end", size + 10, 10},
			{"whole-stream", 0, size},
		}
		for _, cached := range []bool{false, true} {
			c := codecFor(t, cached)
			ra := fx.open(t, c, bytes.NewReader(fx.comp))
			if ra.Size() != size {
				t.Fatalf("%s: Size %d, want %d", fx.name, ra.Size(), size)
			}
			// Two passes: with a cache the second is served from it.
			for pass := 0; pass < 2; pass++ {
				for _, writeTo := range []bool{false, true} {
					for _, rg := range ranges {
						id := fmt.Sprintf("%s/cache=%v/writeTo=%v/%s", fx.name, cached, writeTo, rg.name)
						got, err := readVia(ra, context.Background(), writeTo, rg.off, rg.n)
						lo, hi := min(rg.off, size), min(rg.off+rg.n, size)
						wantErr := error(nil)
						if rg.n > 0 && rg.off+rg.n > size {
							wantErr = io.EOF
						}
						if err != wantErr {
							t.Fatalf("%s: err %v, want %v", id, err, wantErr)
						}
						if !bytes.Equal(got, fx.raw[lo:hi]) {
							t.Fatalf("%s: %d bytes differ from raw[%d:%d]", id, len(got), lo, hi)
						}
					}
				}
			}
			if cached {
				if st := c.CacheStats(); st.Hits == 0 {
					t.Fatalf("%s: cache never hit across repeated ranges: %+v", fx.name, st)
				}
				ra.Forget()
			}
		}
	}
}

// TestBlockSourceFailures: for every source, a corrupt block fails exactly
// the calls that touch it — a spanning call returns the error with the
// bytes of the blocks before it and nothing from it — and a pre-cancelled
// context returns its error without leaving a buffer pinned.
func TestBlockSourceFailures(t *testing.T) {
	for _, fx := range blockFixtures(t) {
		const k = 2
		mut := fx.corrupt(t, k)
		prevStart, prevLen := fx.span(k - 1)
		_, kLen := fx.span(k)
		_, nextLen := fx.span(k + 1)
		size := int64(len(fx.raw))
		for _, cached := range []bool{false, true} {
			for _, writeTo := range []bool{false, true} {
				id := fmt.Sprintf("%s/cache=%v/writeTo=%v", fx.name, cached, writeTo)
				c := codecFor(t, cached)
				ra := fx.open(t, c, bytes.NewReader(mut))
				got, err := readVia(ra, context.Background(), writeTo, prevStart, prevLen+kLen+nextLen)
				if err == nil || err == io.EOF {
					t.Fatalf("%s: spanning call over corrupt block %d: err %v", id, k, err)
				}
				if !bytes.Equal(got, fx.raw[prevStart:prevStart+prevLen]) {
					t.Fatalf("%s: %d bytes before the error, want the %d of block %d", id, len(got), prevLen, k-1)
				}
				if got, err := readVia(ra, context.Background(), writeTo, prevStart+prevLen+5, 10); err == nil || len(got) != 0 {
					t.Fatalf("%s: call inside corrupt block: %d bytes, err %v", id, len(got), err)
				}
				// The failed decode left nothing pinned or cached: healthy
				// blocks on both sides still serve.
				if got, err := readVia(ra, context.Background(), writeTo, 0, prevStart+prevLen); err != nil || !bytes.Equal(got, fx.raw[:prevStart+prevLen]) {
					t.Fatalf("%s: healthy prefix after failure: err %v", id, err)
				}

				ctx, cancel := context.WithCancel(context.Background())
				c = codecFor(t, cached, gompresso.WithContext(ctx))
				ra = fx.open(t, c, bytes.NewReader(fx.comp))
				cancel()
				// ReadAt runs under the codec's context, WriteRangeTo under
				// the one it is handed.
				if got, err := readVia(ra, ctx, writeTo, 0, size); !errors.Is(err, context.Canceled) || len(got) != 0 {
					t.Fatalf("%s: cancelled call: %d bytes, err %v", id, len(got), err)
				}
				if st := c.CacheStats(); st.Bytes > st.MaxBytes {
					t.Fatalf("%s: cache over budget after cancelled call: %+v", id, st)
				}
				if got, err := readVia(ra, context.Background(), true, 0, size); err != nil || !bytes.Equal(got, fx.raw) {
					t.Fatalf("%s: full read after cancelled call: err %v", id, err)
				}
			}
		}
	}
}

// eagerEOF is an io.ReaderAt that reports io.EOF together with the final
// bytes whenever a read ends exactly at the end of input — legal per the
// io.ReaderAt contract, and what some object-store clients do.
type eagerEOF struct {
	data []byte
}

func (e eagerEOF) ReadAt(p []byte, off int64) (int, error) {
	n, err := bytes.NewReader(e.data).ReadAt(p, off)
	if err == nil && off+int64(n) == int64(len(e.data)) {
		err = io.EOF
	}
	return n, err
}

// countingReaderAt counts the bytes read through it.
type countingReaderAt struct {
	io.ReaderAt
	n atomic.Int64
}

func (c *countingReaderAt) ReadAt(p []byte, off int64) (int, error) {
	n, err := c.ReaderAt.ReadAt(p, off)
	c.n.Add(int64(n))
	return n, err
}

// A source that returns (len(p), io.EOF) on reads ending at its size must
// neither demote an indexed container to a scan (the trailer's footer read
// always ends at the size) nor fail a trailer-less container's last block.
func TestReaderAtEagerEOFSource(t *testing.T) {
	raw := datagen.WikiXML(200<<10, 77)
	for _, index := range []bool{true, false} {
		comp := compress(t, raw, gompresso.WithBlockSize(16<<10), gompresso.WithIndex(index))
		src := &countingReaderAt{ReaderAt: eagerEOF{comp}}
		ra, err := newCodec(t).NewReaderAt(src, int64(len(comp)))
		if err != nil {
			t.Fatalf("index=%v: NewReaderAt: %v", index, err)
		}
		if n := src.n.Load(); index && n > int64(len(comp))/4 {
			t.Fatalf("opening an indexed container read %d of %d bytes: the trailer was not used", n, len(comp))
		}
		got := make([]byte, len(raw))
		if _, err := ra.ReadAt(got, 0); err != nil {
			t.Fatalf("index=%v: ReadAt: %v", index, err)
		}
		if !bytes.Equal(got, raw) {
			t.Fatalf("index=%v: bytes differ", index)
		}
	}
}
