package gompresso_test

import (
	"bytes"
	"errors"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
)

// The facade must expose a complete compress/decompress lifecycle.
func TestFacadeRoundtrip(t *testing.T) {
	src := datagen.WikiXML(2<<20, 5)
	for _, variant := range []gompresso.Variant{gompresso.VariantBit, gompresso.VariantByte} {
		comp, cs, err := newCodec(t, gompresso.WithVariant(variant), gompresso.WithDE(gompresso.DEStrict)).Compress(src)
		if err != nil {
			t.Fatal(err)
		}
		if cs.Ratio <= 1 {
			t.Fatalf("%v: no compression (%.2f)", variant, cs.Ratio)
		}
		h, err := gompresso.Info(comp)
		if err != nil {
			t.Fatal(err)
		}
		if h.Variant != variant || h.RawSize != uint64(len(src)) {
			t.Fatalf("%v: header %+v", variant, h)
		}
		device := gompresso.WithEngine(gompresso.EngineDevice)
		for i, tc := range [][]gompresso.Option{
			{gompresso.WithEngine(gompresso.EngineHost)},
			{device, gompresso.WithStrategy(gompresso.DE)},
			{device, gompresso.WithStrategy(gompresso.MRR), gompresso.WithPCIe(gompresso.PCIeInOut)},
		} {
			out, ds, err := newCodec(t, tc...).Decompress(comp)
			if err != nil {
				t.Fatalf("%v case %d: %v", variant, i, err)
			}
			if !bytes.Equal(out, src) {
				t.Fatalf("%v case %d: mismatch", variant, i)
			}
			if i > 0 && ds.Throughput() <= 0 {
				t.Fatalf("%v: no throughput", variant)
			}
		}
	}
}

// Info reads the header and nothing else: a container cut off right behind it
// answers like the whole one, and two bytes are a format error.
func TestInfoReadsOnlyTheHeader(t *testing.T) {
	comp := compress(t, datagen.WikiXML(100_000, 5), gompresso.WithDE(gompresso.DELit))
	want, err := gompresso.Info(comp)
	if err != nil {
		t.Fatal(err)
	}
	if want.Variant != gompresso.VariantBit || want.DEMode != gompresso.DELit || want.RawSize != 100_000 {
		t.Fatalf("header %+v", want)
	}
	if got, err := gompresso.Info(comp[:format.HeaderSize]); err != nil || got != want {
		t.Fatalf("header-only container: %+v, %v; want %+v", got, err, want)
	}
	if _, err := gompresso.Info(comp[:2]); !errors.Is(err, format.ErrFormat) {
		t.Fatalf("two bytes: %v, want format.ErrFormat", err)
	}
}
