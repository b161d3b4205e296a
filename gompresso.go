// Package gompresso is a Go reproduction of "Massively-Parallel Lossless
// Data Decompression" (Sitaridi, Mueller, Kaldewey, Lohman, Ross — ICPP
// 2016): the Gompresso compression scheme and a block-parallel host codec
// for it (one-shot, streaming and random access), plus — behind
// WithEngine(EngineDevice) — the paper's warp-synchronous GPU kernels with
// the Multi-Round Resolution and Dependency Elimination strategies for
// nested back-references, run on a deterministic device simulator that
// models their time. Everything else in the package is the host path; the
// simulator is reached from that one option and nowhere else.
//
// Quick start — build a Codec once, use it for every operation:
//
//	codec, err := gompresso.New(
//		gompresso.WithDE(gompresso.DEStrict),
//		gompresso.WithIndex(true),
//	)
//	comp, _, err := codec.Compress(data)       // whole buffer...
//	w := codec.NewWriter(dst)                  // ...or stream: parallel block
//	io.Copy(w, src)                            //    compression with bounded
//	err = w.Close()                            //    memory; same bytes out
//	out, stats, err := codec.Decompress(comp)  // host fast path by default
//	r, err := codec.NewReader(bytes.NewReader(comp))   // streaming + Seek
//	ra, err := codec.NewReaderAt(file, size)           // concurrent ReadAt
//
// For serving workloads, WithCache(bytes) attaches a shared decoded-block
// cache (LRU, singleflight, zero-copy refcounted buffers) that every
// ReaderAt created from the codec draws on, and internal/server +
// `gompresso serve` expose objects over HTTP with Range semantics on the
// decompressed stream (see DESIGN.md, "Serving layer").
//
// New with no options selects the paper's defaults: Gompresso/Bit
// (LZ77 + limited-length Huffman), 256 KB blocks, 8 KB window, an
// unrestricted parse, GOMAXPROCS workers, and host decompression.
// WithDE(DEStrict) compresses streams the single-round DE strategy can
// decompress; WithEngine(EngineDevice) decompresses on the simulated GPU
// and DecompressStats carries the modeled device time. The simulator's own
// knobs — resolution strategy, PCIe accounting, device — are internal/kernels'
// Config, which cmd/figures and the examples drive directly.
// Configuration mistakes are rejected at New with errors wrapping
// ErrInvalidOption, and WithContext threads cancellation through every
// pipeline.
//
// Codec is the only entry point and its With* options the only
// configuration surface, so the defaults above are the only defaults. See
// DESIGN.md for the system inventory and EXPERIMENTS.md for the reproduced
// evaluation.
package gompresso

import (
	"gompresso/internal/core"
	"gompresso/internal/format"
	"gompresso/internal/lz77"
)

// Re-exported configuration and result types. Aliases keep the public API
// thin while the implementation lives in internal packages.
type (
	// CompressStats reports compression results.
	CompressStats = core.CompressStats
	// FileHeader is the parsed container header.
	FileHeader = format.FileHeader
	// Variant selects Gompresso/Byte or Gompresso/Bit.
	Variant = format.Variant
	// DEMode selects the Dependency-Elimination parse rule.
	DEMode = lz77.DEMode
)

// Compression variants (paper §III).
const (
	VariantByte = format.VariantByte
	VariantBit  = format.VariantBit
)

// Dependency-Elimination parse modes (paper §IV-B and DESIGN.md).
const (
	DEOff    = lz77.DEOff
	DEStrict = lz77.DEStrict
	DELit    = lz77.DELit
)

// Info parses and returns a container's header: it reads the first 35 bytes
// of data and nothing behind them.
func Info(data []byte) (FileHeader, error) { return format.ParseHeader(data) }
