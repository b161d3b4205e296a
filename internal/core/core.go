// Package core orchestrates Gompresso compression and decompression end to
// end: block splitting, the LZ77 parse (with or without Dependency
// Elimination), entropy coding into the container format, and the two
// decompression engines — the host fast path and the simulated-GPU engine
// built on internal/kernels.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"gompresso/internal/format"
	"gompresso/internal/gpu"
	"gompresso/internal/kernels"
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
	RawSize   int64
	CompSize  int64
	Blocks    int
	Seqs      int64
	MatchLen  int64 // total back-reference bytes
	LitLen    int64 // total literal bytes
	Seconds   float64
	Ratio     float64 // RawSize / CompSize
	Speed     float64 // raw bytes per second (host wall clock)
	GroupsDep int     // warp groups that would need >1 MRR round
}

// BlockStats are one block's compression counters, aggregated into
// CompressStats by whole-stream callers.
type BlockStats struct {
	Seqs      int
	LitLen    int
	MatchLen  int64
	GroupsDep int
}

// Accumulate folds one block's counters into the stream totals.
func (s *CompressStats) Accumulate(bs BlockStats) {
	s.Seqs += int64(bs.Seqs)
	s.LitLen += int64(bs.LitLen)
	s.MatchLen += bs.MatchLen
	s.GroupsDep += bs.GroupsDep
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
	if o.DE == lz77.DEOff {
		mrr := lz77.AnalyzeMRR(ts, lz77.DefaultGroupSize)
		for _, r := range mrr.Rounds {
			if r > 1 {
				bs.GroupsDep++
			}
		}
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

// Engine selects the decompression implementation.
type Engine int

const (
	// EngineDevice decompresses on the simulated GPU (the paper's system).
	EngineDevice Engine = iota
	// EngineHost decompresses block-parallel on host goroutines through
	// the fused fast path — the production decoder.
	EngineHost
)

// PCIeMode selects which host↔device transfers are included in the modeled
// time, matching the three series of paper Fig. 13.
type PCIeMode int

const (
	PCIeNone  PCIeMode = iota // data resides in device memory (No PCIe)
	PCIeIn                    // compressed input transferred to the device (In)
	PCIeInOut                 // input and decompressed output transferred (In/Out)
)

func (m PCIeMode) String() string {
	switch m {
	case PCIeNone:
		return "No PCIe"
	case PCIeIn:
		return "In"
	case PCIeInOut:
		return "In/Out"
	default:
		return fmt.Sprintf("PCIeMode(%d)", int(m))
	}
}

// DecompressOptions configures decompression.
type DecompressOptions struct {
	Engine   Engine
	Strategy kernels.Strategy // device engine back-reference strategy
	Device   *gpu.Device      // nil selects a simulated Tesla K40
	PCIe     PCIeMode
	Workers  int // host engine goroutines
	// TileTo, when > 0, makes the device time model behave as if the input
	// were replicated to TileTo raw bytes. The paper's evaluation uses 1 GB
	// datasets, which keep the device full; smaller reproductions would
	// otherwise understate throughput at large block sizes. Output and
	// correctness are unaffected.
	TileTo int64
}

// DecompressStats reports modeled device time (device engine) and measured
// host time (both engines).
type DecompressStats struct {
	RawSize  int64
	CompSize int64

	HostSeconds float64 // wall-clock of the whole call

	// Device engine only:
	DecodeLaunch  *gpu.LaunchStats // Bit variant Huffman decode kernel
	LZ77Launch    *gpu.LaunchStats // LZ77 (or fused Byte) kernel
	PCIeInSec     float64
	PCIeOutSec    float64
	DeviceSeconds float64 // simulated kernel time
	SimSeconds    float64 // simulated end-to-end time incl. selected PCIe
	Rounds        *kernels.RoundStats
}

// Throughput returns raw bytes per simulated second (device engine) or per
// host second (host engine).
func (s *DecompressStats) Throughput() float64 {
	t := s.SimSeconds
	if t == 0 {
		t = s.HostSeconds
	}
	if t <= 0 {
		return 0
	}
	return float64(s.RawSize) / t
}

// Decompress reverses Compress.
func Decompress(data []byte, o DecompressOptions) ([]byte, *DecompressStats, error) {
	return DecompressContext(context.Background(), data, o)
}

// DecompressContext is Decompress with cancellation: a context cancelled
// mid-stream makes pending block decodes return early and the call fail
// with ctx.Err().
func DecompressContext(ctx context.Context, data []byte, o DecompressOptions) ([]byte, *DecompressStats, error) {
	o, err := o.Normalize()
	if err != nil {
		return nil, nil, err
	}
	start := time.Now()
	f, err := format.ParseFile(data)
	if err != nil {
		return nil, nil, err
	}
	stats := &DecompressStats{
		RawSize:  int64(f.Header.RawSize),
		CompSize: int64(len(data)),
	}
	out := make([]byte, f.Header.RawSize)
	if len(f.Blocks) == 0 {
		stats.HostSeconds = time.Since(start).Seconds()
		return out, stats, nil
	}

	switch o.Engine {
	case EngineHost:
		err = decompressHost(ctx, f, out, o)
	case EngineDevice:
		if err = ctx.Err(); err == nil {
			err = decompressDevice(f, data, out, o, stats)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	stats.HostSeconds = time.Since(start).Seconds()
	return out, stats, nil
}

// decompressHost is the block-parallel host path: every block decodes
// through format's single entry point (bitstream→output in one pass, pooled
// decoder tables, chunked match copies, zero steady-state allocations).
// Decode scratch is hoisted to one per worker share, so a many-block
// container pays the pool Get/Put once per worker instead of once per block.
func decompressHost(ctx context.Context, f *format.File, out []byte, o DecompressOptions) error {
	bs := int(f.Header.BlockSize)
	scratch := make([]*format.DecodeScratch, parallel.Workers(len(f.Blocks), o.Workers))
	for i := range scratch {
		scratch[i] = format.GetScratch()
	}
	defer func() {
		for _, sc := range scratch {
			format.PutScratch(sc)
		}
	}()
	errs := make([]error, len(f.Blocks))
	parallel.ForShare(len(f.Blocks), o.Workers, func(share, i int) {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			return
		}
		blk := &f.Blocks[i]
		errs[i] = f.Header.DecodeBlockInto(out[i*bs:i*bs+blk.RawLen], blk, scratch[share])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("core: block %d: %w", i, err)
		}
	}
	return nil
}

// decompressDevice runs the simulated-GPU pipeline.
func decompressDevice(f *format.File, comp, out []byte, o DecompressOptions, stats *DecompressStats) error {
	dev := o.Device
	if dev == nil {
		dev = gpu.MustDevice(gpu.TeslaK40())
	}
	bs := int(f.Header.BlockSize)
	rawLens := make([]int, len(f.Blocks))
	for i := range f.Blocks {
		rawLens[i] = f.Blocks[i].RawLen
	}
	tile := 1
	if o.TileTo > 0 && int64(len(out)) > 0 {
		tile = int((o.TileTo + int64(len(out)) - 1) / int64(len(out)))
		if tile < 1 {
			tile = 1
		}
	}

	if f.Header.Variant == format.VariantByte {
		in := kernels.ByteInput{
			RawLens:   rawLens,
			BlockSize: bs,
			Out:       out,
			Tile:      tile,
		}
		for i := range f.Blocks {
			in.Payloads = append(in.Payloads, f.Blocks[i].Payload)
			in.NumSeqs = append(in.NumSeqs, f.Blocks[i].NumSeqs)
		}
		ls, rounds, err := kernels.ByteLaunch(dev, in, o.Strategy)
		if err != nil {
			return err
		}
		stats.LZ77Launch = ls
		stats.Rounds = rounds
		stats.DeviceSeconds = ls.Time
	} else {
		bitBlocks := make([]*format.BitBlock, len(f.Blocks))
		for i := range f.Blocks {
			bitBlocks[i] = f.BitBlockOf(i)
		}
		ds, soas, err := kernels.DecodeLaunch(dev, bitBlocks, tile)
		if err != nil {
			return err
		}
		in := kernels.LZ77Input{Tokens: soas, RawLens: rawLens, BlockSize: bs, Out: out, Tile: tile}
		ls, rounds, err := kernels.LZ77Launch(dev, in, o.Strategy)
		if err != nil {
			return err
		}
		stats.DecodeLaunch = ds
		stats.LZ77Launch = ls
		stats.Rounds = rounds
		stats.DeviceSeconds = ds.Time + ls.Time
	}

	// Transfer composition: the compressed input must land before kernels
	// consume it, but decompressed blocks stream back over PCIe while later
	// blocks are still being processed, so the output transfer overlaps
	// compute (Gompresso processes blocks independently, which is what makes
	// this pipelining possible). End-to-end time is therefore
	// in + max(compute, out) — consistent with the paper's Fig. 13, where
	// Gompresso/Bit including transfers still reaches ~10 GB/s even though
	// serial transfers alone would cap it lower.
	stats.SimSeconds = stats.DeviceSeconds
	if o.PCIe >= PCIeIn {
		stats.PCIeInSec = dev.Spec.PCIeTime(int64(len(comp)))
	}
	if o.PCIe >= PCIeInOut {
		stats.PCIeOutSec = dev.Spec.PCIeTime(int64(len(out)))
		if stats.PCIeOutSec > stats.SimSeconds {
			stats.SimSeconds = stats.PCIeOutSec
		}
	}
	stats.SimSeconds += stats.PCIeInSec
	return nil
}

// Info parses and returns the container header without decompressing.
func Info(data []byte) (format.FileHeader, error) {
	f, err := format.ParseFile(data)
	if err != nil {
		return format.FileHeader{}, err
	}
	return f.Header, nil
}
