package gompresso_test

import (
	"bytes"
	"io"
	"testing"

	"gompresso"
)

// FuzzRoundTrip drives Compress→Decompress across both variants and DE
// modes, checking that the fused host fast path, the reference host pipeline
// and the streaming Reader all reproduce the input exactly.
func FuzzRoundTrip(f *testing.F) {
	f.Add([]byte("hello hello hello hello gompresso"), uint8(1), uint8(1))
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(bytes.Repeat([]byte("abcd"), 3000), uint8(1), uint8(2))
	f.Add(bytes.Repeat([]byte{0}, 1000), uint8(0), uint8(1))
	f.Add([]byte("<page><title>xml</title><text>decompression as fast as the hardware allows</text></page>"), uint8(1), uint8(0))

	f.Fuzz(func(t *testing.T, data []byte, variantSel, deSel uint8) {
		if len(data) > 1<<20 {
			return
		}
		variant := gompresso.VariantByte
		if variantSel%2 == 1 {
			variant = gompresso.VariantBit
		}
		de := []gompresso.DEMode{gompresso.DEOff, gompresso.DEStrict, gompresso.DELit}[deSel%3]

		codec := newCodec(t, gompresso.WithVariant(variant), gompresso.WithDE(de),
			gompresso.WithBlockSize(8<<10), // small blocks: more block boundaries per input
			gompresso.WithEngine(gompresso.EngineHost))
		comp, _, err := codec.Compress(data)
		if err != nil {
			t.Fatalf("compress: %v", err)
		}

		fast, _, err := codec.Decompress(comp)
		if err != nil {
			t.Fatalf("fast path: %v", err)
		}
		if !bytes.Equal(fast, data) {
			t.Fatalf("fast path mismatch: got %d bytes, want %d", len(fast), len(data))
		}

		ref, err := referenceDecompress(comp)
		if err != nil {
			t.Fatalf("reference path: %v", err)
		}
		if !bytes.Equal(ref, data) {
			t.Fatalf("reference path mismatch")
		}

		r, err := codec.NewReader(bytes.NewReader(comp))
		if err != nil {
			t.Fatalf("stream: %v", err)
		}
		streamed, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("stream read: %v", err)
		}
		if !bytes.Equal(streamed, data) {
			t.Fatalf("stream mismatch")
		}
		r.Close()
	})
}
