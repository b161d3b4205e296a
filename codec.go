package gompresso

import (
	"context"
	"errors"
	"fmt"
	"time"

	"gompresso/internal/blockcache"
	"gompresso/internal/core"
	"gompresso/internal/kernels"
)

// errForeignReaderAt rejects random access over foreign formats: DEFLATE
// streams have no block index, so ReaderAt's concurrent range serving is
// native-container-only.
var errForeignReaderAt = errors.New("gompresso: random access requires the native container format")

// ErrInvalidOption reports a configuration value outside its domain (a
// negative worker count, a block size out of range, an unknown variant).
// New wraps it, so callers can separate configuration mistakes from data
// errors with errors.Is.
var ErrInvalidOption = core.ErrInvalidOption

// Codec is a reusable, validated Gompresso configuration — the single
// constructor for every operation the package offers. Build one with New
// and functional options, then use it for whole buffers (Compress /
// Decompress), streams (NewWriter / NewReader), or random access
// (NewReaderAt). The paper's block-parallel design is symmetric — blocks
// are independent on both sides — and so is the Codec: compression and
// decompression share one worker budget and one context.
//
// A Codec is immutable after New and safe for concurrent use; Readers and
// Writers created from it each carry their own streaming state but draw on
// the same shared worker pool.
type Codec struct {
	copt   core.Options // Workers is the budget of every operation, decode included
	ctx    context.Context
	form   Format
	engine Engine
	dev    kernels.Config // device engine only

	cacheBytes int64
	cache      *blockcache.Cache // nil unless WithCache(n>0)
}

// Option configures a Codec being built by New.
type Option func(*Codec)

// WithVariant selects the entropy-coding variant. New's default is
// VariantBit (the paper's headline configuration).
func WithVariant(v Variant) Option { return func(c *Codec) { c.copt.Variant = v } }

// WithBlockSize sets the data block size in bytes (default 256 KiB). Block
// size is the parallelism granule on both sides of the codec.
func WithBlockSize(n int) Option { return func(c *Codec) { c.copt.BlockSize = n } }

// WithWindow sets the LZ77 sliding window in bytes (default 8 KiB).
func WithWindow(n int) Option { return func(c *Codec) { c.copt.Window = n } }

// WithDE selects the Dependency-Elimination parse mode (default DEOff:
// unrestricted parse, decompress with MRR).
func WithDE(m DEMode) Option { return func(c *Codec) { c.copt.DE = m } }

// WithCWL sets the Bit variant's codeword length limit (default 10).
func WithCWL(n int) Option { return func(c *Codec) { c.copt.CWL = n } }

// WithSeqsPerSub sets the Bit variant's sequences per sub-block
// (default 16).
func WithSeqsPerSub(n int) Option { return func(c *Codec) { c.copt.SeqsPerSub = n } }

// WithIndex makes compression append the GPIX index trailer (block
// offsets), letting readers with random access seek without scanning the
// block section first.
func WithIndex(on bool) Option { return func(c *Codec) { c.copt.Index = on } }

// WithWorkers sets the codec's worker budget — the number of blocks
// compressed or decompressed concurrently by Compress, Decompress, and the
// streaming Writer/Reader pipelines, which keep at most twice that many
// blocks in flight. 0 selects GOMAXPROCS; with 1 every block is processed on
// the calling goroutine.
func WithWorkers(n int) Option { return func(c *Codec) { c.copt.Workers = n } }

// WithEngine selects the decompression engine for Codec.Decompress. New's
// default is EngineHost, the production fast path; EngineDevice is the
// paper's simulated GPU.
func WithEngine(e Engine) Option { return func(c *Codec) { c.engine = e } }

// WithStrategy pins the device engine's back-reference resolution
// strategy. Without it, the device engine picks DE for DE-parsed streams
// and MRR otherwise.
func WithStrategy(s Strategy) Option { return func(c *Codec) { c.dev.Strategy = s } }

// WithPCIe selects the device engine's transfer accounting.
func WithPCIe(m PCIeMode) Option { return func(c *Codec) { c.dev.PCIe = m } }

// WithFormat pins the input format Decompress and NewReader expect. The
// default, FormatAuto, sniffs the magic bytes and accepts the Gompresso
// container, gzip, and zlib; raw DEFLATE (FormatDeflate) has no magic and
// requires this option. Unrecognized input fails with an error wrapping
// ErrUnknownFormat. Compression is unaffected: the codec always produces
// Gompresso containers.
func WithFormat(f Format) Option { return func(c *Codec) { c.form = f } }

// WithCache attaches a shared decoded-block cache of the given size in
// bytes to the codec. Every ReaderAt the codec creates serves hits from
// it: a block decoded for one request is handed to concurrent and later
// requests without re-decoding (concurrent decodes of the same block
// coalesce into one), with eviction by LRU when resident decoded bytes
// exceed the budget. The cache is sharded for concurrency (up to 16
// ways, fewer for small budgets so a shard always fits at least one
// block); a block larger than its shard's budget is served but not
// retained, so size the cache at a multiple of the block size. 0 (the
// default) disables caching — reads then take exactly the uncached
// decode path — and negative sizes are rejected with ErrInvalidOption.
// Sequential Readers and one-shot Decompress are unaffected: the cache
// exists for the random-access serving path, where ranges revisit blocks.
func WithCache(bytes int64) Option { return func(c *Codec) { c.cacheBytes = bytes } }

// WithContext attaches a context to every operation the codec performs.
// Cancelling it makes in-flight calls fail with ctx.Err() and drains the
// streaming pipelines' workers without leaking goroutines.
func WithContext(ctx context.Context) Option { return func(c *Codec) { c.ctx = ctx } }

// New builds a Codec. With no options it selects the paper's defaults:
// Gompresso/Bit, 256 KiB blocks, 8 KiB window, unrestricted parse, host
// decompression, GOMAXPROCS workers. Invalid values are rejected with an
// error wrapping ErrInvalidOption.
func New(opts ...Option) (*Codec, error) {
	//lint:allow ctxguard construction-time default, overridden by WithContext
	c := &Codec{ctx: context.Background()}
	c.copt.Variant = VariantBit
	for _, opt := range opts {
		opt(c)
	}
	if c.ctx == nil {
		c.ctx = context.Background() //lint:allow ctxguard WithContext(nil) falls back to the root
	}
	if c.form < FormatAuto || c.form > FormatDeflate {
		return nil, fmt.Errorf("gompresso: %w: unknown format %d", ErrInvalidOption, int(c.form))
	}
	if c.engine != EngineHost && c.engine != EngineDevice {
		return nil, fmt.Errorf("gompresso: %w: unknown engine %d", ErrInvalidOption, int(c.engine))
	}
	var err error
	if c.copt, err = c.copt.Normalize(); err != nil {
		return nil, err
	}
	if c.cacheBytes < 0 {
		return nil, fmt.Errorf("gompresso: %w: negative cache size %d", ErrInvalidOption, c.cacheBytes)
	}
	if c.cacheBytes > 0 {
		c.cache = blockcache.New(c.cacheBytes)
	}
	return c, nil
}

// CacheStats reports the decoded-block cache's effectiveness counters —
// the raw material for a server's metrics endpoint: the cache's own
// snapshot plus Enabled, which is false (and everything else zero) for a
// codec built without WithCache.
type CacheStats struct {
	Enabled bool
	blockcache.Stats
}

// CacheStats snapshots the codec's decoded-block cache counters.
func (c *Codec) CacheStats() CacheStats {
	if c.cache == nil {
		return CacheStats{}
	}
	return CacheStats{Enabled: true, Stats: c.cache.Stats()}
}

// Options returns the codec's resolved compression options — defaults
// filled, as Compress and NewWriter run them. The struct is internal: it
// is readable here for in-module instrumentation (the benchmark's encode
// probes), not a configuration surface.
func (c *Codec) Options() core.Options { return c.copt }

// Compress compresses src into a Gompresso container using the codec's
// configuration and worker budget.
func (c *Codec) Compress(src []byte) ([]byte, *CompressStats, error) {
	return core.CompressContext(c.ctx, src, c.copt)
}

// Engine selects the decompression implementation.
type Engine int

const (
	// EngineHost decompresses block-parallel on host goroutines through
	// the fused fast path — the production decoder, and New's default.
	EngineHost Engine = iota
	// EngineDevice decompresses on the simulated GPU (the paper's system).
	EngineDevice
)

// DecompressStats reports measured host time (both engines) and, embedded,
// the modeled device time (device engine only; zero on the host).
type DecompressStats struct {
	RawSize  int64
	CompSize int64

	HostSeconds float64 // wall-clock of the whole call

	kernels.Stats
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

// Decompress expands a compressed input. The format follows WithFormat:
// with the default FormatAuto the magic bytes select the Gompresso
// container, gzip, or zlib (unrecognized input fails with an error
// wrapping ErrUnknownFormat). Foreign formats decode on the host through
// internal/deflate at the codec's worker budget — the calling goroutine and
// Workers−1 speculative chunk decoders; containers use the configured engine.
func (c *Codec) Decompress(data []byte) ([]byte, *DecompressStats, error) {
	form := c.form
	if form == FormatAuto {
		if form = sniffFormat(data); form == FormatAuto {
			return nil, nil, unknownFormat(data)
		}
	}
	start := time.Now()
	var (
		out []byte
		dev kernels.Stats
		err error
	)
	switch {
	case form != FormatGompresso:
		out, err = decompressForeign(data, form, c)
	case c.engine == EngineHost:
		out, err = core.DecompressContext(c.ctx, data, c.copt.Workers)
	default:
		if err = c.ctx.Err(); err == nil {
			out, dev, err = kernels.Decompress(data, c.dev)
		}
	}
	if err != nil {
		return nil, nil, err
	}
	return out, &DecompressStats{
		RawSize:     int64(len(out)),
		CompSize:    int64(len(data)),
		HostSeconds: time.Since(start).Seconds(),
		Stats:       dev,
	}, nil
}
