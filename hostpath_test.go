package gompresso_test

import (
	"bytes"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
)

// The fused host fast path must be byte-identical to the reference pipeline
// on all three paper corpora, for both variants and DE settings.
func TestHostFastPathMatchesReference(t *testing.T) {
	corpora := []struct {
		name   string
		data   []byte
		window int
	}{
		{"wiki", datagen.WikiXML(1<<20, 2), 0},
		{"matrix", datagen.MatrixMarket(1<<20, 2), 0},
		{"nesting", datagen.Nesting(1<<20, 8, 3), datagen.NestingWindow},
	}
	for _, c := range corpora {
		for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
			for _, de := range []gompresso.DEMode{gompresso.DEOff, gompresso.DEStrict} {
				codec := newCodec(t, gompresso.WithVariant(variant), gompresso.WithDE(de),
					gompresso.WithWindow(c.window), gompresso.WithBlockSize(128<<10),
					gompresso.WithEngine(gompresso.EngineHost))
				comp, _, err := codec.Compress(c.data)
				if err != nil {
					t.Fatalf("%s/%v/%v: compress: %v", c.name, variant, de, err)
				}
				fast, _, err := codec.Decompress(comp)
				if err != nil {
					t.Fatalf("%s/%v/%v: fast: %v", c.name, variant, de, err)
				}
				ref, err := referenceDecompress(comp)
				if err != nil {
					t.Fatalf("%s/%v/%v: reference: %v", c.name, variant, de, err)
				}
				if !bytes.Equal(fast, c.data) {
					t.Fatalf("%s/%v/%v: fast path does not reproduce input", c.name, variant, de)
				}
				if !bytes.Equal(fast, ref) {
					t.Fatalf("%s/%v/%v: fast path differs from reference", c.name, variant, de)
				}
			}
		}
	}
}
