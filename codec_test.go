package gompresso_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"

	"gompresso"
	"gompresso/internal/core"
	"gompresso/internal/datagen"
)

// New with no options must resolve to the paper's headline defaults.
func TestCodecDefaults(t *testing.T) {
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	o := c.Options()
	if o.Variant != gompresso.VariantBit {
		t.Fatalf("default variant %v, want Gompresso/Bit", o.Variant)
	}
	if o.BlockSize != 256<<10 {
		t.Fatalf("default block size %d", o.BlockSize)
	}
	if o.Window != 8<<10 {
		t.Fatalf("default window %d", o.Window)
	}
	if o.Workers < 1 {
		t.Fatalf("default workers %d", o.Workers)
	}
}

// New must reject every out-of-domain value with the shared typed error.
// It is the only place a configuration is validated: readers, writers and
// whole-buffer calls all run on a codec that passed it.
func TestInvalidOptionsRejected(t *testing.T) {
	bad := [][]gompresso.Option{
		{gompresso.WithWorkers(-1)},
		{gompresso.WithBlockSize(-4096)},
		{gompresso.WithBlockSize(100)},
		{gompresso.WithVariant(gompresso.Variant(9))},
		{gompresso.WithCWL(1)},
		{gompresso.WithSeqsPerSub(-1)},
		{gompresso.WithCache(-1)},
		{gompresso.WithEngine(gompresso.Engine(7))},
	}
	for i, opts := range bad {
		if _, err := gompresso.New(opts...); !errors.Is(err, gompresso.ErrInvalidOption) {
			t.Errorf("case %d: want ErrInvalidOption, got %v", i, err)
		}
	}
}

// A codec without WithCache reports a disabled cache; with it, the
// stats reflect the configured budget.
func TestCacheStats(t *testing.T) {
	plain, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	if st := plain.CacheStats(); st.Enabled || st != (gompresso.CacheStats{}) {
		t.Fatalf("uncached codec stats = %+v", st)
	}
	cached, err := gompresso.New(gompresso.WithCache(1 << 20))
	if err != nil {
		t.Fatal(err)
	}
	st := cached.CacheStats()
	if !st.Enabled || st.MaxBytes != 1<<20 || st.HitRate() != 0 {
		t.Fatalf("cached codec stats = %+v", st)
	}
}

// Codec round trip: the functional options resolve to the core options of
// the same names (Compress emits core.Compress's bytes), and both engines
// decompress them.
func TestCodecRoundTrip(t *testing.T) {
	src := datagen.WikiXML(300_000, 5)
	c, err := gompresso.New(gompresso.WithDE(gompresso.DEStrict), gompresso.WithIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	comp, cs, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Ratio <= 1 {
		t.Fatalf("ratio %.2f", cs.Ratio)
	}
	want, _, err := core.Compress(src, core.Options{
		Variant: gompresso.VariantBit, DE: gompresso.DEStrict, Index: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(comp, want) {
		t.Fatal("codec Compress differs from core.Compress")
	}
	out, _, err := c.Decompress(comp)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("host decompress: %v", err)
	}
	// Device engine with auto strategy (DE stream → DE strategy).
	dev, err := gompresso.New(gompresso.WithEngine(gompresso.EngineDevice))
	if err != nil {
		t.Fatal(err)
	}
	out, ds, err := dev.Decompress(comp)
	if err != nil || !bytes.Equal(out, src) {
		t.Fatalf("device decompress: %v", err)
	}
	if ds.Rounds == nil || ds.Rounds.MaxRounds > 1 {
		t.Fatalf("auto strategy should pick DE for a DE stream: %+v", ds.Rounds)
	}
}

// A cancelled codec context fails Compress and Decompress with ctx.Err().
func TestCodecContextCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c, err := gompresso.New(gompresso.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	src := datagen.WikiXML(64<<10, 3)
	if _, _, err := c.Compress(src); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compress: want context.Canceled, got %v", err)
	}
	comp := compress(t, src)
	if _, _, err := c.Decompress(comp); !errors.Is(err, context.Canceled) {
		t.Fatalf("Decompress: want context.Canceled, got %v", err)
	}
}

// A Reader built from a cancelled-context codec surfaces ctx.Err() from
// Read instead of hanging or leaking, in both pipeline and sync modes.
func TestCodecReaderContextCancelled(t *testing.T) {
	src := datagen.WikiXML(512<<10, 29)
	comp := compress(t, src, gompresso.WithBlockSize(32<<10))
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		c, err := gompresso.New(gompresso.WithWorkers(workers), gompresso.WithContext(ctx))
		if err != nil {
			t.Fatal(err)
		}
		r, err := c.NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatal(err)
		}
		one := make([]byte, 1)
		if _, err := io.ReadFull(r, one); err != nil {
			t.Fatal(err)
		}
		cancel()
		_, err = io.Copy(io.Discard, r)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: want context.Canceled from Read, got %v", workers, err)
		}
		r.Close()
	}
}

// The codec's worker budget reaches ReaderAt.
func TestCodecReaderAt(t *testing.T) {
	src := datagen.WikiXML(256<<10, 31)
	c, err := gompresso.New(gompresso.WithBlockSize(16<<10), gompresso.WithIndex(true), gompresso.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	ra, err := c.NewReaderAt(bytes.NewReader(comp), int64(len(comp)))
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 60_000)
	if _, err := ra.ReadAt(got, 1000); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, src[1000:61_000]) {
		t.Fatal("ReadAt mismatch")
	}
}
