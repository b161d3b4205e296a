package gompresso_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"testing"
	"time"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/deflate"
	"gompresso/internal/format"
	"gompresso/internal/gzidx"
)

// lie rewrites, in place, the block size and raw size in the header of the
// one-block container c and the raw length of its record.
func lie(c []byte, blockSize, raw uint32) {
	binary.LittleEndian.PutUint32(c[17:], blockSize)
	binary.LittleEndian.PutUint64(c[21:], uint64(raw))
	binary.LittleEndian.PutUint32(c[format.HeaderSize:], raw)
}

// A record's raw length sizes the buffer its block decodes into, so a
// container that lies about it must be refused before anything is allocated:
// by the header when its block size is past the encoder's ceiling, by the
// record when its payload could not hold that many bytes, and by a sidecar
// when a window's container claims more than the window.
func TestLyingRawLengthAllocatesNothing(t *testing.T) {
	gib := format.AppendHeader(nil, format.FileHeader{
		Variant: format.VariantByte, Window: 8 << 10, MinMatch: 4, MaxMatch: 64, SeqsPerSub: 16, NumBlocks: 1,
	})
	gib = format.AppendBlock(gib, format.VariantByte, &format.Block{})
	lie(gib, 1<<30, 1<<30)
	if len(gib) != 47 {
		t.Fatalf("the lying Byte container is %d bytes", len(gib))
	}
	// A real record of 500 bytes at the largest block size a header may
	// declare, claiming to fill it.
	full := compress(t, datagen.WikiXML(500, 3), gompresso.WithBlockSize(format.MaxBlockSize))
	lie(full, format.MaxBlockSize, format.MaxBlockSize)

	c := newCodec(t)
	ops := []struct {
		name string
		run  func(data []byte) error
	}{
		{"Decompress", func(data []byte) error {
			_, _, err := c.Decompress(data)
			return err
		}},
		{"NewReader+WriteTo", func(data []byte) error {
			r, err := c.NewReader(bytes.NewReader(data))
			if err != nil {
				return err
			}
			defer r.Close()
			_, err = r.WriteTo(io.Discard)
			return err
		}},
		{"NewReaderAt+ReadAt", func(data []byte) error {
			ra, err := c.NewReaderAt(bytes.NewReader(data), int64(len(data)))
			if err != nil {
				return err
			}
			_, err = ra.ReadAt(make([]byte, 100), 0)
			return err
		}},
	}
	for name, data := range map[string][]byte{"1 GiB Byte": gib, "64 MiB Bit": full} {
		for _, op := range ops {
			var err error
			if n := gompresso.BytesPerRun(1, func() { err = op.run(data) }); n >= 1<<20 {
				t.Errorf("%s: %s allocated %d bytes", name, op.name, n)
			}
			if !errors.Is(err, format.ErrFormat) {
				t.Errorf("%s: %s: %v, want ErrFormat", name, op.name, err)
			}
		}
	}

	// A sidecar whose second checkpoint's window is stored as a Bit container,
	// which is then made to lie.
	window := datagen.WikiXML(1000, 5)
	sidecar, err := gzidx.Encode(&deflate.Index{
		Form: deflate.FormatGzip, SrcSize: 1 << 20, RawSize: 2000, Members: 1,
		Checkpoints: []deflate.Checkpoint{{Bit: 80}, {Bit: 8000, Out: 1000, Window: window}},
	}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	magic := format.Magic()
	at := bytes.Index(sidecar, magic[:])
	if _, _, err := gzidx.Decode(sidecar); err != nil || at < 0 {
		t.Fatalf("the sidecar does not decode (%v) or stores no Bit window (%d)", err, at)
	}
	for _, claim := range []uint32{1 << 30, format.MaxBlockSize} {
		bad := bytes.Clone(sidecar)
		lie(bad[at:], claim, claim)
		body := bad[:len(bad)-4]
		binary.LittleEndian.PutUint32(bad[len(body):], crc32.ChecksumIEEE(body))
		if n := gompresso.BytesPerRun(1, func() { _, _, err = gzidx.Decode(bad) }); n >= 1<<20 {
			t.Errorf("sidecar with a %d-byte window container: Decode allocated %d bytes", claim, n)
		}
		if !errors.Is(err, gzidx.ErrSidecar) {
			t.Errorf("sidecar with a %d-byte window container: %v, want ErrSidecar", claim, err)
		}
	}
}

// An index trailer's record lengths must each cover a record and stay inside
// the block section, not merely add up to it. Lengths that add up modulo 2^64
// are not an index: random access scans the blocks instead, and the
// whole-container parsers refuse the container. The lie is 2 GiB for the
// first record, minus that for the second: believed, it costs one 100-byte
// ReadAt 2 GiB, which this test reports; at 2^40 the allocation would kill
// the test process instead.
func TestIndexTrailerWrappingLengths(t *testing.T) {
	src := datagen.WikiXML(150<<10, 7)
	opts := []gompresso.Option{gompresso.WithBlockSize(64 << 10), gompresso.WithIndex(true)}
	comp := compress(t, src, opts...)
	h, err := format.ParseHeader(comp)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := format.ReadIndexAt(bytes.NewReader(comp), int64(len(comp)), h)
	if err != nil {
		t.Fatal(err)
	}
	lying := bytes.Clone(comp[:idx.Offsets[h.NumBlocks]])
	offsets := append([]int64(nil), idx.Offsets...)
	offsets[1] = offsets[0] + 1<<31
	lying = format.AppendIndex(lying, offsets)

	if _, err := format.ReadIndexAt(bytes.NewReader(lying), int64(len(lying)), h); !errors.Is(err, format.ErrFormat) {
		t.Fatalf("ReadIndexAt accepted the wrapping trailer: %v", err)
	}
	c := newCodec(t, opts...)
	ra, err := c.NewReaderAt(bytes.NewReader(lying), int64(len(lying)))
	if err != nil {
		t.Fatalf("NewReaderAt: %v", err)
	}
	got := make([]byte, 100)
	if n := gompresso.BytesPerRun(1, func() { _, err = ra.ReadAt(got, 0) }); n >= 1<<20 {
		t.Errorf("a 100-byte ReadAt allocated %d bytes", n)
	}
	if err != nil || !bytes.Equal(got, src[:100]) {
		t.Fatalf("ReadAt: %v", err)
	}
	if _, _, err := c.Decompress(lying); !errors.Is(err, format.ErrFormat) {
		t.Errorf("Decompress: %v, want ErrFormat", err)
	}
}
