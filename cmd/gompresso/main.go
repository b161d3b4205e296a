// Command gompresso compresses and decompresses files in the Gompresso
// format (paper Fig. 3), and decompresses foreign gzip/zlib streams
// through the parallel two-pass deflate pipeline.
//
// Usage:
//
//	gompresso compress   [flags] <in> <out>   ("-" streams stdin/stdout)
//	gompresso decompress [flags] <in> <out>
//	gompresso cat        [flags] <in>     (stream a range to stdout)
//	gompresso stat       [-json] <in>     (container metadata, no decode)
//	gompresso index      [flags] <in>     (build a .gzx seek-index sidecar for a .gz/.zz)
//	gompresso serve      [flags]          (HTTP range server over -root)
//	gompresso loadtest   [flags]          (open-loop latency load harness against serve)
//	gompresso version    [-v]             (build metadata from the embedded build info)
//
// compress streams its input through the parallel gompresso.Writer, so
// arbitrarily large inputs (including pipes) compress in bounded memory.
// decompress and cat sniff their input: Gompresso containers take the
// native block-parallel path, .gz/.zz files the deflate pipeline
// (`gompresso cat file.gz` is a parallel `gzip -dc`; -offset/-length
// require the native container's index). Both run on the host; the paper's
// simulated GPU kernels are reproduced by cmd/figures and driven directly by
// the examples.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"gompresso"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "compress":
		err = compressCmd(args)
	case "decompress":
		err = decompressCmd(args)
	case "cat":
		err = catCmd(args)
	case "stat":
		err = statCmd(args)
	case "index":
		err = indexCmd(args)
	case "serve":
		err = serveCmd(args)
	case "loadtest":
		err = loadtestCmd(args)
	case "version":
		err = versionCmd(args)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gompresso:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: gompresso {compress|decompress|cat|stat|index|serve|loadtest|version} [flags] <in> [out]")
	os.Exit(2)
}

// Flag spellings of the codec's enumerations.
var (
	variants = map[string]gompresso.Variant{"bit": gompresso.VariantBit, "byte": gompresso.VariantByte}
	deModes  = map[string]gompresso.DEMode{"off": gompresso.DEOff, "strict": gompresso.DEStrict, "lit": gompresso.DELit}
)

// compressFlags registers the compression flags on fs and returns the
// constructor, for use after fs.Parse, of the codec they describe with any
// extra options applied on top.
func compressFlags(fs *flag.FlagSet) func(extra ...gompresso.Option) (*gompresso.Codec, error) {
	variant := fs.String("variant", "bit", "entropy coding: bit (Huffman) or byte (LZ4-style)")
	blockKB := fs.Int("block", 256, "data block size in KiB")
	window := fs.Int("window", 8<<10, "LZ77 sliding window in bytes")
	de := fs.String("de", "strict", "dependency elimination: off, strict, lit")
	cwl := fs.Int("cwl", 10, "Huffman codeword length limit (bit variant)")
	subSeqs := fs.Int("subseqs", 16, "sequences per sub-block (bit variant)")
	index := fs.Bool("index", false, "append an index trailer for fast seeking")
	return func(extra ...gompresso.Option) (*gompresso.Codec, error) {
		v, ok := variants[*variant]
		if !ok {
			return nil, fmt.Errorf("unknown variant %q", *variant)
		}
		m, ok := deModes[*de]
		if !ok {
			return nil, fmt.Errorf("unknown DE mode %q", *de)
		}
		return gompresso.New(append([]gompresso.Option{
			gompresso.WithVariant(v),
			gompresso.WithDE(m),
			gompresso.WithBlockSize(*blockKB << 10),
			gompresso.WithWindow(*window),
			gompresso.WithCWL(*cwl),
			gompresso.WithSeqsPerSub(*subSeqs),
			gompresso.WithIndex(*index),
		}, extra...)...)
	}
}

// compressCmd streams the input through the parallel Writer: the source is
// read one block at a time (never whole-file), blocks compress concurrently
// on -workers goroutines, and the container streams to the output file with
// the header backpatched at the end.
func compressCmd(args []string) error {
	fs := flag.NewFlagSet("compress", flag.ExitOnError)
	codec := compressFlags(fs)
	workers := fs.Int("workers", 0, "concurrent block compressions (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("compress needs <in> <out>")
	}
	c, err := codec(gompresso.WithWorkers(*workers))
	if err != nil {
		return err
	}
	in := io.Reader(os.Stdin)
	if name := fs.Arg(0); name != "-" {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		defer f.Close()
		in = f
	}
	// Compress into a temp file next to the destination and rename on
	// success, so a mid-stream failure never truncates or corrupts a
	// pre-existing output file.
	out := io.Writer(os.Stdout)
	var tmp *os.File
	if name := fs.Arg(1); name != "-" {
		f, err := os.CreateTemp(filepath.Dir(name), filepath.Base(name)+".tmp-*")
		if err != nil {
			return err
		}
		tmp = f
		out = f
		defer func() {
			if tmp != nil { // still set: we failed before the rename
				tmp.Close()
				os.Remove(tmp.Name())
			}
		}()
	}
	w := c.NewWriter(out)
	if _, err := io.Copy(w, in); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	if tmp != nil {
		if err := tmp.Chmod(0o644); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		if err := os.Rename(tmp.Name(), fs.Arg(1)); err != nil {
			return err
		}
		tmp = nil
	}
	stats := w.Stats()
	fmt.Fprintf(os.Stderr, "%d -> %d bytes  ratio %.3f  %.1f MB/s  %d blocks  %d sequences\n",
		stats.RawSize, stats.CompSize, stats.Ratio, stats.Speed/1e6, stats.Blocks, stats.Seqs)
	return nil
}

// decompressCmd hands the whole input to one Codec.Decompress on the host:
// the codec routes by magic bytes (not by parse success, so a corrupt native
// container still surfaces its own error) and decodes foreign gzip/zlib input
// through the deflate pipeline.
func decompressCmd(args []string) error {
	fs := flag.NewFlagSet("decompress", flag.ExitOnError)
	workers := fs.Int("workers", 0, "concurrent block decodes (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 2 {
		return fmt.Errorf("decompress needs <in> <out>")
	}
	c, err := gompresso.New(gompresso.WithWorkers(*workers))
	if err != nil {
		return err
	}
	comp, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	out, stats, err := c.Decompress(comp)
	if err != nil {
		return err
	}
	if err := os.WriteFile(fs.Arg(1), out, 0o644); err != nil {
		return err
	}
	fmt.Printf("%d bytes  host %.3f ms\n", stats.RawSize, stats.HostSeconds*1e3)
	return nil
}

// catCmd streams (a range of) a container's decompressed contents to
// stdout through the parallel pipelined Reader — the serving path, as
// opposed to decompressCmd's whole-buffer decode.
func catCmd(args []string) error {
	fs := flag.NewFlagSet("cat", flag.ExitOnError)
	workers := fs.Int("workers", 0, "concurrent block decodes (0 = GOMAXPROCS)")
	offset := fs.Int64("offset", 0, "start at this decompressed byte offset")
	length := fs.Int64("length", -1, "stop after this many bytes (-1 = to the end)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("cat needs <in>")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	c, err := gompresso.New(gompresso.WithWorkers(*workers))
	if err != nil {
		return err
	}
	r, err := c.NewReader(f)
	if err != nil {
		return err
	}
	defer r.Close()
	if *offset > 0 {
		if _, err := r.Seek(*offset, io.SeekStart); err != nil {
			return err
		}
	}
	var src io.Reader = r
	if *length >= 0 {
		src = io.LimitReader(r, *length)
	}
	_, err = io.Copy(os.Stdout, src)
	return err
}
