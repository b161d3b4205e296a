package gompresso_test

import (
	"bytes"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
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
