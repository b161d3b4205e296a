// Nestingdepth reproduces the paper's Fig. 9c experiment interactively:
// it generates the artificial datasets of Fig. 10 (repeated 16-byte strings
// with alternating one-byte mutations), sweeps the designed nesting depth,
// and prints how the Multi-Round Resolution time grows with the depth of
// back-reference chains — the behaviour Dependency Elimination removes.
package main

import (
	"fmt"
	"log"
	"strings"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/kernels"
)

func main() {
	const size = 8 << 20
	fmt.Println("designed depth vs measured MRR rounds and simulated time (8 MiB per point)")
	fmt.Println()
	fmt.Printf("%-10s %-15s %-12s %-14s %s\n", "families", "designed depth", "avg rounds", "MRR time (ms)", "bar")
	// One codec per parse mode. The simulated device's strategy is left
	// unpinned, so it follows the stream: MRR for an unrestricted parse, DE
	// for a DE parse.
	codec := func(de gompresso.DEMode) *gompresso.Codec {
		c, err := gompresso.New(
			gompresso.WithVariant(gompresso.VariantByte),
			gompresso.WithDE(de),
			gompresso.WithWindow(datagen.NestingWindow),
		)
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	mrr := codec(gompresso.DEOff)
	for _, families := range []int{32, 16, 8, 4, 2, 1} {
		data := datagen.Nesting(size, families, 7)
		comp, _, err := mrr.Compress(data)
		if err != nil {
			log.Fatal(err)
		}
		out, ds, err := kernels.Decompress(comp, kernels.Config{})
		if err != nil {
			log.Fatal(err)
		}
		if len(out) != size {
			log.Fatal("roundtrip size mismatch")
		}
		ms := ds.SimSeconds * 1e3
		bar := strings.Repeat("#", int(ms/2)+1)
		fmt.Printf("%-10d %-15d %-12.1f %-14.2f %s\n",
			families, datagen.NestingDepthFor(families), ds.Rounds.AvgRounds(), ms, bar)
	}
	fmt.Println()
	fmt.Println("the same data decompressed after a Dependency-Elimination parse:")
	data := datagen.Nesting(size, 1, 7)
	de := codec(gompresso.DEStrict)
	comp, cs, err := de.Compress(data)
	if err != nil {
		log.Fatal(err)
	}
	_, ds, err := kernels.Decompress(comp, kernels.Config{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DE: %.2f ms, 1 round by construction (ratio cost: %.2f vs unrestricted)\n",
		ds.SimSeconds*1e3, cs.Ratio)
}
