package gompresso_test

import (
	"bytes"
	"io"
	"math/rand"
	"sync"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
)

// ReaderAt must serve any byte range of the decompressed stream, with and
// without an index trailer, byte-identical to Decompress output.
func TestReaderAt(t *testing.T) {
	const blockSize = 64 << 10
	src := datagen.WikiXML(1<<20, 31)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		for _, withIndex := range []bool{false, true} {
			comp := compress(t, src, gompresso.WithVariant(variant), gompresso.WithBlockSize(blockSize), gompresso.WithIndex(withIndex))
			ra, err := newCodec(t).NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
			if err != nil {
				t.Fatalf("variant=%v index=%v: %v", variant, withIndex, err)
			}
			if ra.Size() != int64(len(src)) {
				t.Fatalf("Size() = %d, want %d", ra.Size(), len(src))
			}
			ranges := []struct{ off, n int }{
				{0, 1}, {0, len(src)}, {5, 100},
				{blockSize - 1, 2}, {blockSize, blockSize},
				{blockSize + 7, 3 * blockSize}, {2*blockSize + 11, blockSize - 22},
				{len(src) - 1, 1},
			}
			for _, rg := range ranges {
				p := make([]byte, rg.n)
				n, err := ra.ReadAt(p, int64(rg.off))
				if err != nil {
					t.Fatalf("variant=%v index=%v ReadAt(%d,%d): %v", variant, withIndex, rg.off, rg.n, err)
				}
				if n != rg.n || !bytes.Equal(p[:n], src[rg.off:rg.off+n]) {
					t.Fatalf("variant=%v index=%v ReadAt(%d,%d): %d bytes, mismatch", variant, withIndex, rg.off, rg.n, n)
				}
			}
			// Ranges past the end: partial fill + io.EOF, or 0 + io.EOF.
			p := make([]byte, 200)
			n, err := ra.ReadAt(p, int64(len(src)-100))
			if n != 100 || err != io.EOF || !bytes.Equal(p[:100], src[len(src)-100:]) {
				t.Fatalf("EOF range: n=%d err=%v", n, err)
			}
			if n, err := ra.ReadAt(p, int64(len(src))); n != 0 || err != io.EOF {
				t.Fatalf("read at end: n=%d err=%v", n, err)
			}
			if n, err := ra.ReadAt(nil, 0); n != 0 || err != nil {
				t.Fatalf("empty read: n=%d err=%v", n, err)
			}
			if _, err := ra.ReadAt(p, -1); err == nil {
				t.Fatal("negative offset accepted")
			}
		}
	}
}

// A ReaderAt must serve many goroutines concurrently — the range-server
// shape. Run with -race to validate the pooled buffers and scratch.
func TestReaderAtConcurrent(t *testing.T) {
	const blockSize = 32 << 10
	src := datagen.WikiXML(1<<20, 37)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(blockSize), gompresso.WithIndex(true))
	ra, err := newCodec(t).NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			p := make([]byte, 4*blockSize)
			for i := 0; i < 40; i++ {
				off := rng.Intn(len(src))
				n := 1 + rng.Intn(len(p)-1)
				got, err := ra.ReadAt(p[:n], int64(off))
				want := len(src) - off
				if want > n {
					want = n
				}
				if got != want {
					t.Errorf("ReadAt(%d,%d) = %d bytes, want %d (err %v)", off, n, got, want, err)
					return
				}
				if err != nil && err != io.EOF {
					t.Errorf("ReadAt(%d,%d): %v", off, n, err)
					return
				}
				if !bytes.Equal(p[:got], src[off:off+got]) {
					t.Errorf("ReadAt(%d,%d): content mismatch", off, n)
					return
				}
			}
		}(int64(g))
	}
	wg.Wait()
}

// io.SectionReader over a ReaderAt gives an independent sequential view —
// the documented way to stream a sub-range.
func TestReaderAtSectionReader(t *testing.T) {
	src := datagen.WikiXML(512<<10, 41)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(64<<10))
	ra, err := newCodec(t).NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		t.Fatal(err)
	}
	sect := io.NewSectionReader(ra, 70_000, 100_000)
	out, err := io.ReadAll(sect)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, src[70_000:170_000]) {
		t.Fatal("section read mismatch")
	}
}

// A corrupt block must fail the exact ReadAt calls that touch it, while
// ranges over healthy blocks keep working.
func TestReaderAtCorruptBlock(t *testing.T) {
	const blockSize = 64 << 10
	src := datagen.WikiXML(512<<10, 43)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(blockSize))
	const k = 2
	mut, ok := corruptBlock(t, comp, k)
	if !ok {
		t.Skip("block layout does not allow the mutation")
	}
	ra, err := newCodec(t).NewReaderAt(bytes.NewReader(mut), int64(len(mut)))
	if err != nil {
		t.Fatal(err)
	}
	p := make([]byte, blockSize)
	if _, err := ra.ReadAt(p, 0); err != nil {
		t.Fatalf("healthy block 0: %v", err)
	}
	if !bytes.Equal(p, src[:blockSize]) {
		t.Fatal("healthy block 0: mismatch")
	}
	if _, err := ra.ReadAt(p, k*blockSize); err == nil {
		t.Fatal("corrupt block decoded without error")
	}
	// A spanning read reports the bytes decoded before the corrupt block.
	big := make([]byte, 3*blockSize)
	n, err := ra.ReadAt(big, blockSize)
	if err == nil {
		t.Fatal("spanning read over corrupt block succeeded")
	}
	if n != blockSize || !bytes.Equal(big[:n], src[blockSize:2*blockSize]) {
		t.Fatalf("spanning read: n=%d, want %d healthy bytes", n, blockSize)
	}
}
