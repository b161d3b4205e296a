package gompresso_test

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
)

// Concurrent ReaderAt stress: many goroutines issue overlapping random
// ranges — through ReadAt and WriteRangeTo, cache on and off — and every
// byte must match the one-shot Decompress oracle. CI runs this under
// -race, which is the point: the pooled buffers, shared scratch,
// refcounted cache buffers, and singleflight decodes all collide here.
func TestReaderAtStress(t *testing.T) {
	const blockSize = 32 << 10
	src := datagen.WikiXML(768<<10, 41)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		comp := compress(t, src, gompresso.WithVariant(variant), gompresso.WithBlockSize(blockSize), gompresso.WithIndex(true))
		// Oracle: the whole stream via the one-shot host engine.
		oracle, _, err := newCodec(t).Decompress(comp)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(oracle, src) {
			t.Fatal("oracle mismatch")
		}
		for _, cacheBytes := range []int64{0, 256 << 10, 64 << 20} {
			// 256 KiB forces constant eviction (the corpus decodes to 3×
			// that); 64 MiB means everything stays resident after first use.
			codec, err := gompresso.New(gompresso.WithCache(cacheBytes))
			if err != nil {
				t.Fatal(err)
			}
			ra, err := codec.NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func(seed int64) {
					defer wg.Done()
					rnd := rand.New(rand.NewSource(seed))
					for i := 0; i < 25; i++ {
						off := rnd.Intn(len(src))
						n := 1 + rnd.Intn(3*blockSize)
						if off+n > len(src) {
							n = len(src) - off
						}
						if n == 0 {
							continue
						}
						if i%2 == 0 {
							p := make([]byte, n)
							m, err := ra.ReadAt(p, int64(off))
							if err != nil && err != io.EOF {
								t.Errorf("ReadAt(%d,%d): %v", off, n, err)
								return
							}
							if m != n || !bytes.Equal(p[:m], oracle[off:off+n]) {
								t.Errorf("ReadAt(%d,%d): mismatch", off, n)
								return
							}
						} else {
							var buf bytes.Buffer
							m, err := ra.WriteRangeTo(context.Background(), &buf, int64(off), int64(n))
							if err != nil && err != io.EOF {
								t.Errorf("WriteRangeTo(%d,%d): %v", off, n, err)
								return
							}
							if m != int64(n) || !bytes.Equal(buf.Bytes(), oracle[off:off+n]) {
								t.Errorf("WriteRangeTo(%d,%d): mismatch (%d bytes)", off, n, m)
								return
							}
						}
					}
				}(int64(g)*977 + int64(cacheBytes) + int64(variant))
			}
			wg.Wait()
			if t.Failed() {
				t.Fatalf("variant=%v cache=%d", variant, cacheBytes)
			}
			stats := codec.CacheStats()
			if cacheBytes == 0 && stats.Enabled {
				t.Fatal("cache reported enabled at size 0")
			}
			if cacheBytes > 0 {
				if !stats.Enabled || stats.Hits+stats.Misses == 0 {
					t.Fatalf("cache=%d saw no traffic: %+v", cacheBytes, stats)
				}
				if stats.Bytes > stats.MaxBytes {
					t.Fatalf("cache over budget: %+v", stats)
				}
				if stats.Entries == 0 {
					t.Fatalf("cache=%d retained nothing: %+v", cacheBytes, stats)
				}
				if cacheBytes == 256<<10 && stats.Evictions == 0 {
					t.Fatalf("cache=%d: corpus is 3x the budget but nothing evicted: %+v", cacheBytes, stats)
				}
			}
		}
	}
}

// Two ReaderAts over the same codec share the cache but must not alias
// each other's blocks: same block index, different containers.
func TestReaderAtCacheIsolation(t *testing.T) {
	const blockSize = 16 << 10
	srcA := datagen.WikiXML(64<<10, 1)
	srcB := datagen.WikiXML(64<<10, 2)
	codec, err := gompresso.New(gompresso.WithCache(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	open := func(src []byte) *gompresso.ReaderAt {
		comp := compress(t, src, byteVariant, gompresso.WithBlockSize(blockSize), gompresso.WithIndex(true))
		ra, err := codec.NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
		if err != nil {
			t.Fatal(err)
		}
		return ra
	}
	raA, raB := open(srcA), open(srcB)
	pa, pb := make([]byte, 1000), make([]byte, 1000)
	for i := 0; i < 2; i++ { // second pass hits the cache
		if _, err := raA.ReadAt(pa, 5000); err != nil {
			t.Fatal(err)
		}
		if _, err := raB.ReadAt(pb, 5000); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(pa, srcA[5000:6000]) || !bytes.Equal(pb, srcB[5000:6000]) {
			t.Fatalf("pass %d: cross-object aliasing", i)
		}
	}
	if stats := codec.CacheStats(); stats.Hits == 0 {
		t.Fatalf("second pass did not hit the cache: %+v", stats)
	}
}

// WriteRangeTo must propagate per-request context cancellation.
func TestWriteRangeToCancelled(t *testing.T) {
	src := datagen.WikiXML(256<<10, 3)
	comp := compress(t, src, byteVariant, gompresso.WithBlockSize(16<<10), gompresso.WithIndex(true))
	for _, cacheBytes := range []int64{0, 8 << 20} {
		codec, err := gompresso.New(gompresso.WithCache(cacheBytes))
		if err != nil {
			t.Fatal(err)
		}
		ra, err := codec.NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if _, err := ra.WriteRangeTo(ctx, io.Discard, 0, int64(len(src))); err == nil {
			t.Fatalf("cache=%d: cancelled WriteRangeTo succeeded", cacheBytes)
		}
	}
}
