package gompresso

import (
	"context"
	"errors"
	"fmt"

	"gompresso/internal/blockcache"
	"gompresso/internal/core"
	"gompresso/internal/format"
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
// decompression share one worker budget, one readahead bound, and one
// context.
//
// A Codec is immutable after New and safe for concurrent use; Readers and
// Writers created from it each carry their own streaming state but draw on
// the same shared worker pool.
type Codec struct {
	copt     core.Options
	dopt     core.DecompressOptions
	pipe     core.Pipeline
	ctx      context.Context
	form     Format
	stratSet bool

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
// streaming Writer/Reader pipelines. 0 selects GOMAXPROCS; 1 selects the
// synchronous single-goroutine paths.
func WithWorkers(n int) Option {
	return func(c *Codec) {
		c.copt.Workers = n
		c.dopt.Workers = n
		c.pipe.Workers = n
	}
}

// WithReadahead bounds how many finished blocks the streaming pipelines
// may buffer ahead of their consumer (default 2×Workers) — the
// back-pressure bound that keeps pipeline memory at
// O((Workers+Readahead) × BlockSize).
func WithReadahead(n int) Option { return func(c *Codec) { c.pipe.Readahead = n } }

// WithEngine selects the decompression engine for Codec.Decompress. New's
// default is EngineHost, the production fast path; EngineDevice is the
// paper's simulated GPU.
func WithEngine(e Engine) Option { return func(c *Codec) { c.dopt.Engine = e } }

// WithStrategy pins the device engine's back-reference resolution
// strategy. Without it, Codec.Decompress picks DE for DE-parsed streams
// and MRR otherwise.
func WithStrategy(s Strategy) Option {
	return func(c *Codec) {
		c.dopt.Strategy = s
		c.stratSet = true
	}
}

// WithPCIe selects the device engine's transfer accounting.
func WithPCIe(m PCIeMode) Option { return func(c *Codec) { c.dopt.PCIe = m } }

// WithDevice supplies the simulated device the device engine runs on
// (default: a Tesla K40).
func WithDevice(d *Device) Option { return func(c *Codec) { c.dopt.Device = d } }

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
	c.dopt.Engine = EngineHost
	for _, opt := range opts {
		opt(c)
	}
	if c.ctx == nil {
		c.ctx = context.Background() //lint:allow ctxguard WithContext(nil) falls back to the root
	}
	if c.form < FormatAuto || c.form > FormatDeflate {
		return nil, fmt.Errorf("gompresso: %w: unknown format %d", ErrInvalidOption, int(c.form))
	}
	var err error
	if c.copt, err = c.copt.Normalize(); err != nil {
		return nil, err
	}
	if c.dopt, err = c.dopt.Normalize(); err != nil {
		return nil, err
	}
	if c.pipe, err = c.pipe.Normalize(); err != nil {
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

// Workers returns the codec's resolved worker budget.
func (c *Codec) Workers() int { return c.pipe.Workers }

// Compress compresses src into a Gompresso container using the codec's
// configuration and worker budget.
func (c *Codec) Compress(src []byte) ([]byte, *CompressStats, error) {
	return core.CompressContext(c.ctx, src, c.copt)
}

// Decompress expands a compressed input. The format follows WithFormat:
// with the default FormatAuto the magic bytes select the Gompresso
// container, gzip, or zlib (unrecognized input fails with an error
// wrapping ErrUnknownFormat). Foreign formats decode on the host through
// internal/deflate's parallel two-pass pipeline at the codec's worker
// budget; containers use the configured engine, and with the device engine
// and no pinned strategy the codec picks DE for DE-parsed streams and MRR
// otherwise.
func (c *Codec) Decompress(data []byte) ([]byte, *DecompressStats, error) {
	form := c.form
	if form == FormatAuto {
		if form = sniffFormat(data); form == FormatAuto {
			return nil, nil, unknownFormat(data)
		}
	}
	if form != FormatGompresso {
		return decompressForeign(data, form, c)
	}
	o := c.dopt
	if o.Engine == EngineDevice && !c.stratSet {
		o.Strategy = MRR
		if h, err := format.ParseHeader(data); err == nil && h.DEMode != DEOff {
			o.Strategy = DE
		}
	}
	return core.DecompressContext(c.ctx, data, o)
}
