// Codeccompare runs the paper's Fig. 13 head-to-head on this machine:
// the four block-parallel CPU baselines (stdlib DEFLATE standing in for
// zlib, plus from-scratch LZ4, Snappy and the Zstd-like LZ+tANS codec)
// measured with real goroutine parallelism, against Gompresso on the
// simulated Tesla K40.
package main

import (
	"bytes"
	"fmt"
	"log"
	"time"

	"gompresso"
	"gompresso/internal/baseline"
	"gompresso/internal/datagen"
)

func main() {
	const size = 16 << 20
	data := datagen.WikiXML(size, 3)
	fmt.Printf("corpus: %d bytes of synthetic Wikipedia XML\n\n", len(data))
	fmt.Printf("%-22s %-10s %-12s %s\n", "system", "ratio", "decomp GB/s", "notes")

	// CPU baselines: 2 MB blocks, common work queue (paper §V-D).
	for _, c := range baseline.All() {
		comp, err := baseline.CompressParallel(c, data, baseline.DefaultParallelBlockSize, 0)
		if err != nil {
			log.Fatal(c.Name(), ": ", err)
		}
		best := 0.0
		for i := 0; i < 3; i++ {
			start := time.Now()
			out, err := baseline.DecompressParallel(c, comp, 0)
			if err != nil {
				log.Fatal(c.Name(), ": ", err)
			}
			if !bytes.Equal(out, data) {
				log.Fatal(c.Name(), ": roundtrip mismatch")
			}
			if dt := time.Since(start).Seconds(); best == 0 || dt < best {
				best = dt
			}
		}
		fmt.Printf("%-22s %-10.2f %-12.2f measured on this host\n",
			c.Name()+" (CPU)", float64(len(data))/float64(len(comp)),
			float64(len(data))/best/1e9)
	}

	// Gompresso on the simulated device, through the public Codec. Blocks
	// are the device's unit of parallelism (one warp each in the LZ77
	// kernel), so 64 KiB blocks give this 16 MiB corpus the 256 independent
	// blocks that start to fill a K40; the paper's 1 GB inputs do that at the
	// default 256 KiB, which is what cmd/figures -fig 13 models.
	for _, g := range []struct {
		name    string
		variant gompresso.Variant
		pcie    gompresso.PCIeMode
	}{
		{"Gomp/Bit (In/Out)", gompresso.VariantBit, gompresso.PCIeInOut},
		{"Gomp/Byte (In/Out)", gompresso.VariantByte, gompresso.PCIeInOut},
		{"Gomp/Byte (No PCIe)", gompresso.VariantByte, gompresso.PCIeNone},
	} {
		codec, err := gompresso.New(
			gompresso.WithVariant(g.variant), gompresso.WithDE(gompresso.DEStrict),
			gompresso.WithBlockSize(64<<10),
			gompresso.WithEngine(gompresso.EngineDevice), gompresso.WithPCIe(g.pcie),
		)
		if err != nil {
			log.Fatal(err)
		}
		comp, cs, err := codec.Compress(data)
		if err != nil {
			log.Fatal(err)
		}
		out, ds, err := codec.Decompress(comp)
		if err != nil {
			log.Fatal(err)
		}
		if !bytes.Equal(out, data) {
			log.Fatal("gompresso roundtrip mismatch")
		}
		fmt.Printf("%-22s %-10.2f %-12.2f simulated Tesla K40\n",
			g.name, cs.Ratio, ds.Throughput()/1e9)
	}
	fmt.Println("\nCPU numbers depend on this machine; the GPU numbers come from the")
	fmt.Println("calibrated device model (see DESIGN.md). Paper shape: Gompresso/Bit")
	fmt.Println("≈2× parallel zlib; Gompresso/Byte fastest without transfers.")
}
