// Package core orchestrates Gompresso compression and decompression end to
// end on the host: block splitting, the LZ77 parse (with or without
// Dependency Elimination), entropy coding into the container format, and the
// block-parallel decode through format's fused fast path. The simulated-GPU
// engine is internal/kernels; nothing here knows it exists.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gompresso/internal/format"
	"gompresso/internal/lz77"
	"gompresso/internal/parallel"
)

// Options configures compression. The zero value compresses with the paper's
// defaults: Gompresso/Bit, 256 KB blocks, 8 KB window, 64-byte max match,
// CWL 10, 16 sequences per sub-block — and an unrestricted LZ77 parse
// (DE off; decompress with MRR). Set DE to lz77.DEStrict for streams the
// single-round DE strategy can decompress.
type Options struct {
	Variant    format.Variant
	BlockSize  int
	Window     int
	MinMatch   int
	MaxMatch   int
	MaxChain   int
	DE         lz77.DEMode
	Staleness  int // > 0 selects the LZ4-style single-entry matcher
	CWL        int // Bit variant: codeword length limit
	SeqsPerSub int // Bit variant: sequences per sub-block
	Workers    int // host goroutines for block-parallel compression
	// Index appends an optional index trailer (block offsets) to the
	// container, letting readers with random access seek without scanning
	// the block section first. Containers stay readable by every decoder
	// either way.
	Index bool
}

// DefaultBlockSize is the paper's default data block size (§V).
const DefaultBlockSize = 256 << 10

// CompressStats reports what compression did.
type CompressStats struct {
	RawSize  int64
	CompSize int64
	Blocks   int
	Seqs     int64
	MatchLen int64 // total back-reference bytes
	LitLen   int64 // total literal bytes
	Seconds  float64
	Ratio    float64 // RawSize / CompSize
	Speed    float64 // raw bytes per second (host wall clock)
}

// BlockStats are one block's compression counters, aggregated into
// CompressStats by whole-stream callers.
type BlockStats struct {
	Seqs     int
	LitLen   int
	MatchLen int64
}

// Accumulate folds one block's counters into the stream totals.
func (s *CompressStats) Accumulate(bs BlockStats) {
	s.Seqs += int64(bs.Seqs)
	s.LitLen += int64(bs.LitLen)
	s.MatchLen += bs.MatchLen
}

// encodeScratch is the encode core's per-worker state: the parser's match
// tables and token buffers and the entropy coder's histograms, code tables
// and bit buffer. Whichever goroutine encodes a block — a pool worker under
// the Writer or CompressContext, or the caller — borrows one for the block,
// so steady-state encoding allocates nothing but growth of dst.
type encodeScratch struct {
	parser lz77.Parser
	bit    format.EncodeScratch
}

var encodePool = sync.Pool{New: func() any { return new(encodeScratch) }}

// EncodeBlockRecord compresses one raw block and appends its complete
// container record (fixed header, trees, size lists, payload) to dst.
// o must already be normalized (Options.Normalize) and src must be at most
// o.BlockSize bytes. It is the single per-block encoder shared by Compress
// and the public streaming Writer, which is what guarantees the two emit
// byte-identical containers.
func EncodeBlockRecord(dst, src []byte, o Options) ([]byte, BlockStats, error) {
	var bs BlockStats
	sc := encodePool.Get().(*encodeScratch)
	defer encodePool.Put(sc)
	ts, err := sc.parser.Parse(src, o.lzOptions())
	if err != nil {
		return dst, bs, err
	}
	blk := format.Block{RawLen: len(src), NumSeqs: len(ts.Seqs)}
	if o.Variant == format.VariantByte {
		blk.Payload, err = format.EncodeByte(ts)
	} else {
		var bb *format.BitBlock
		bb, err = sc.bit.EncodeBit(ts, o.CWL, o.SeqsPerSub)
		if err == nil {
			blk.Payload = bb.Payload
			blk.LitLenLengths = bb.LitLenLengths
			blk.OffLengths = bb.OffLengths
			blk.SubBits = bb.SubBits
			blk.SubLits = bb.SubLits
		}
	}
	if err != nil {
		return dst, bs, err
	}
	bs.Seqs = len(ts.Seqs)
	bs.LitLen = len(ts.Literals)
	for _, s := range ts.Seqs {
		bs.MatchLen += int64(s.MatchLen)
	}
	return format.AppendBlock(dst, o.Variant, &blk), bs, nil
}

// Header builds the container file header Compress writes for normalized
// options o and the given stream totals.
func (o Options) Header(rawSize uint64, numBlocks uint32) format.FileHeader {
	return format.FileHeader{
		Variant:    o.Variant,
		DEMode:     o.DE,
		CWL:        uint8(o.CWL),
		Window:     uint32(o.Window),
		MinMatch:   uint8(o.MinMatch),
		MaxMatch:   uint32(o.MaxMatch),
		BlockSize:  uint32(o.BlockSize),
		RawSize:    rawSize,
		SeqsPerSub: uint16(o.SeqsPerSub),
		NumBlocks:  numBlocks,
	}
}

// Compress compresses src into a Gompresso container.
func Compress(src []byte, o Options) ([]byte, *CompressStats, error) {
	return CompressContext(context.Background(), src, o)
}

// CompressContext is Compress with cancellation: a context cancelled
// mid-stream makes pending block encodes return early and the call fail
// with ctx.Err().
func CompressContext(ctx context.Context, src []byte, o Options) ([]byte, *CompressStats, error) {
	o, err := o.Normalize()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	nb := (len(src) + o.BlockSize - 1) / o.BlockSize

	type result struct {
		rec []byte
		bs  BlockStats
		err error
	}
	results := make([]result, nb)
	parallel.For(nb, o.Workers, func(i int) {
		if err := ctx.Err(); err != nil {
			results[i].err = err
			return
		}
		lo := i * o.BlockSize
		hi := lo + o.BlockSize
		if hi > len(src) {
			hi = len(src)
		}
		results[i].rec, results[i].bs, results[i].err = EncodeBlockRecord(nil, src[lo:hi], o)
	})

	stats := &CompressStats{RawSize: int64(len(src)), Blocks: nb}
	out := format.AppendHeader(nil, o.Header(uint64(len(src)), uint32(nb)))
	offsets := make([]int64, 0, nb+1)
	for i := range results {
		if results[i].err != nil {
			return nil, nil, fmt.Errorf("core: block %d: %w", i, results[i].err)
		}
		offsets = append(offsets, int64(len(out)))
		stats.Accumulate(results[i].bs)
		out = append(out, results[i].rec...)
	}
	if o.Index {
		offsets = append(offsets, int64(len(out)))
		out = format.AppendIndex(out, offsets)
	}
	stats.CompSize = int64(len(out))
	stats.Seconds = time.Since(start).Seconds()
	if stats.CompSize > 0 {
		stats.Ratio = float64(stats.RawSize) / float64(stats.CompSize)
	}
	if stats.Seconds > 0 {
		stats.Speed = float64(stats.RawSize) / stats.Seconds
	}
	return out, stats, nil
}

// DecompressContext reverses Compress, block-parallel on workers host
// goroutines (0 selects GOMAXPROCS): every block decodes through format's
// single entry point (bitstream→output in one pass, pooled decoder tables,
// chunked match copies, zero steady-state allocations). Decode scratch is
// hoisted to one per worker share, so a many-block container pays the pool
// Get/Put once per worker instead of once per block. A context cancelled
// mid-stream makes pending block decodes return early and the call fail with
// ctx.Err().
func DecompressContext(ctx context.Context, data []byte, workers int) ([]byte, error) {
	f, err := format.ParseFile(data)
	if err != nil {
		return nil, err
	}
	out := make([]byte, f.Header.RawSize)
	bs := int(f.Header.BlockSize)
	scratch := make([]*format.DecodeScratch, parallel.Workers(len(f.Blocks), workers))
	for i := range scratch {
		scratch[i] = format.GetScratch()
	}
	defer func() {
		for _, sc := range scratch {
			format.PutScratch(sc)
		}
	}()
	errs := make([]error, len(f.Blocks))
	parallel.ForShare(len(f.Blocks), workers, func(share, i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		blk := &f.Blocks[i]
		errs[i] = f.Header.DecodeBlockInto(out[i*bs:i*bs+blk.RawLen], blk, scratch[share])
	})
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("core: block %d: %w", i, err)
		}
	}
	return out, nil
}
