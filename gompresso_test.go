package gompresso_test

import (
	"bytes"
	"testing"

	"gompresso"
	"gompresso/internal/core"
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

func TestFacadeCustomDevice(t *testing.T) {
	spec := gompresso.TeslaK40()
	spec.SMs = 30 // a bigger imaginary device must not be slower
	dev, err := gompresso.NewDevice(spec)
	if err != nil {
		t.Fatal(err)
	}
	src := datagen.MatrixMarket(2<<20, 5)
	comp := compress(t, src, byteVariant, gompresso.WithDE(gompresso.DEStrict))
	// TileTo (keep the modelled device full, as the paper's 1 GB inputs do)
	// is an evaluation knob of internal/core, not of the Codec.
	_, big, err := core.Decompress(comp, core.DecompressOptions{
		Engine: gompresso.EngineDevice, Strategy: gompresso.DE, Device: dev, TileTo: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, k40, err := core.Decompress(comp, core.DecompressOptions{
		Engine: gompresso.EngineDevice, Strategy: gompresso.DE, TileTo: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if big.SimSeconds > k40.SimSeconds*1.01 {
		t.Fatalf("30-SM device slower than 15-SM: %v vs %v", big.SimSeconds, k40.SimSeconds)
	}
}
