package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"gompresso"
	"gompresso/internal/deflate"
	"gompresso/internal/gzidx"
)

// indexCmd builds a seek-index sidecar for a foreign gzip/zlib file: one
// full decode captures block-boundary checkpoints, and the resulting
// .gzx beside the file (or at -o) lets the server and ReaderAt answer
// arbitrary decompressed ranges by decoding only the covering chunks.
func indexCmd(args []string) error {
	fs := flag.NewFlagSet("index", flag.ExitOnError)
	spacing := fs.Int64("spacing", 0, "decompressed bytes between checkpoints (0 = ~1 MiB default)")
	out := fs.String("o", "", "sidecar output path (default <in>"+gzidx.Ext+")")
	workers := fs.Int("workers", 0, "concurrent decode workers for the indexing pass (0 = GOMAXPROCS)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("index needs <in>")
	}
	in := fs.Arg(0)
	data, err := os.ReadFile(in)
	if err != nil {
		return err
	}
	st, err := os.Stat(in)
	if err != nil {
		return err
	}
	var form deflate.Format
	switch gompresso.DetectFormat(data) {
	case gompresso.FormatGzip:
		form = deflate.FormatGzip
	case gompresso.FormatZlib:
		form = deflate.FormatZlib
	case gompresso.FormatGompresso:
		return fmt.Errorf("%s: native containers carry their own index (use compress -index)", in)
	default:
		return fmt.Errorf("%s: not a gzip or zlib stream", in)
	}
	idx, err := gzidx.Build(context.Background(), data, form, *spacing, deflate.Options{Workers: *workers})
	if err != nil {
		return err
	}
	enc, err := gzidx.Encode(idx, st.ModTime())
	if err != nil {
		return err
	}
	dst := *out
	if dst == "" {
		dst = in + gzidx.Ext
	}
	if err := gzidx.WriteFileAtomic(dst, enc); err != nil {
		return err
	}
	fmt.Printf("%s: %d raw bytes, %d member(s), %d checkpoint(s) -> %s (%d bytes, %.2f%% of compressed)\n",
		in, idx.RawSize, idx.Members, idx.NumChunks(), dst, len(enc),
		100*float64(len(enc))/float64(len(data)))
	return nil
}
