// Quickstart: build one Codec, stream-compress a document through the
// parallel Writer, decompress it on the simulated GPU, and print the
// modeled device throughput and the MRR round statistics that motivate
// Dependency Elimination. The simulator is internal/kernels, called directly
// here with its strategy and PCIe accounting; the public Codec stays host-side.
package main

import (
	"bytes"
	"fmt"
	"io"
	"log"
	"strings"

	"gompresso"
	"gompresso/internal/kernels"
)

func main() {
	// Some compressible input.
	src := []byte(strings.Repeat(
		"Gompresso decompresses independently-compressed blocks on warps of "+
			"32 lanes; sub-blocks make Huffman decoding parallel too. ", 20000))

	// One codec holds the whole configuration: the paper's defaults
	// (Gompresso/Bit, 256 KB blocks) plus the Dependency-Elimination
	// parse and an index trailer for seeking.
	codec, err := gompresso.New(
		gompresso.WithDE(gompresso.DEStrict),
		gompresso.WithIndex(true),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Stream-compress through the parallel Writer: blocks are cut and
	// compressed concurrently, and the container comes out byte-identical
	// to codec.Compress(src).
	var comp bytes.Buffer
	w := codec.NewWriter(&comp)
	if _, err := io.Copy(w, bytes.NewReader(src)); err != nil {
		log.Fatal(err)
	}
	if err := w.Close(); err != nil {
		log.Fatal(err)
	}
	cs := w.Stats()
	fmt.Printf("compressed %d -> %d bytes (ratio %.2f) in %.1f ms across %d blocks\n",
		cs.RawSize, cs.CompSize, cs.Ratio, cs.Seconds*1e3, cs.Blocks)

	// Decompress on the simulated Tesla K40. The unpinned strategy picks
	// DE for DE streams, which resolve every back-reference in a single
	// round.
	out, ds, err := kernels.Decompress(comp.Bytes(), kernels.Config{PCIe: kernels.PCIeInOut})
	if err != nil {
		log.Fatal(err)
	}
	if !bytes.Equal(out, src) {
		log.Fatal("roundtrip mismatch")
	}
	fmt.Printf("device decompression: %.3f ms simulated (%.2f GB/s incl. PCIe)\n",
		ds.SimSeconds*1e3, float64(len(out))/ds.SimSeconds/1e9)
	fmt.Printf("back-reference rounds: avg %.2f, max %d (DE guarantees 1)\n",
		ds.Rounds.AvgRounds(), ds.Rounds.MaxRounds)

	// The host engine (the codec default) is the bit-exact reference, and
	// the streaming Reader serves the same bytes with seeking.
	r, err := codec.NewReader(bytes.NewReader(comp.Bytes()))
	if err != nil {
		log.Fatal(err)
	}
	defer r.Close()
	if _, err := r.Seek(int64(len(src))/2, io.SeekStart); err != nil {
		log.Fatal(err)
	}
	rest, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(rest, src[len(src)/2:]) {
		log.Fatal("seek+read mismatch")
	}
	fmt.Println("host streaming reader agrees after Seek: ok")
}
