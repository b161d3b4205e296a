package gompresso

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime/debug"
	"slices"
	"sync"

	"gompresso/internal/blockcache"
	"gompresso/internal/deflate"
	"gompresso/internal/format"
	"gompresso/internal/obs"
	"gompresso/internal/parallel"
)

// ReaderAt serves positioned reads of a container's decompressed contents —
// the shape an object-store range server or a columnar scan needs. It is
// safe for concurrent use: every ReadAt call is independent, decoding only
// the blocks that overlap the requested range (in parallel, on the shared
// worker pool, when the range spans several) with buffers and decode
// scratch drawn from pools.
//
// The block index comes from the container's optional index trailer
// (WithIndex) when present; otherwise construction scans the block
// section once. For a sequential view of a sub-range, wrap a ReaderAt in an
// io.SectionReader.
type ReaderAt struct {
	ra      io.ReaderAt
	hdr     format.FileHeader // foreign streams: only RawSize is set
	src     blockSource
	workers int // per-call decode concurrency: the codec's worker budget
	ctx     context.Context

	// Optional shared decoded-block cache (Codec.WithCache). Blocks are
	// keyed under obj, a process-unique identity for this ReaderAt, so
	// two readers never alias each other's decoded bytes. nil means
	// every read decodes.
	cache *blockcache.Cache
	obj   uint64
}

// blockSource is the format-specific half of random access: where the
// blocks of a decompressed stream lie and how to decode one. Everything
// above it — the range walker, the cache, tracing — is shared. "Blocks" are
// a native container's fixed-size blocks or a foreign stream's
// variable-length checkpointed chunks.
type blockSource interface {
	// blockOf returns the block containing decompressed offset off.
	blockOf(off int64) int64
	// span returns the decompressed offset block i starts at and the
	// decompressed length it must have.
	span(i int64) (start, n int64)
	// decodeInto reads block i's compressed bytes from src and decodes
	// them into dst, whose length must be span(i)'s.
	decodeInto(src io.ReaderAt, i int64, dst []byte) error
}

// nativeSource is a GPZ1 container's blocks, found through a block index
// that was read from the container's trailer or built by one scan of its
// block section.
type nativeSource struct {
	hdr format.FileHeader
	idx *format.Index
}

// blockSpan returns the raw block size used for block arithmetic.
func (s *nativeSource) blockSpan() int64 {
	if bs := int64(s.hdr.BlockSize); bs > 0 {
		return bs
	}
	return int64(s.hdr.RawSize) // degenerate single-block container
}

func (s *nativeSource) blockOf(off int64) int64 { return off / s.blockSpan() }

// span: BlockSize for every block but the last, the remainder for the last.
func (s *nativeSource) span(i int64) (start, n int64) {
	bs := s.blockSpan()
	start = i * bs
	return start, min(bs, int64(s.hdr.RawSize)-start)
}

func (s *nativeSource) decodeInto(src io.ReaderAt, i int64, dst []byte) error {
	start, end := s.idx.Offsets[i], s.idx.Offsets[i+1]
	rec := recordPool.Get().(*record)
	defer recordPool.Put(rec)
	rec.buf = slices.Grow(rec.buf[:0], int(end-start))[:end-start]
	if err := format.ReadFullAt(src, rec.buf, start); err != nil {
		return fmt.Errorf("gompresso: block %d: %w", i, err)
	}
	if _, err := format.ParseBlock(s.hdr, uint32(i), rec.buf, &rec.blk); err != nil {
		return err
	}
	if err := s.hdr.DecodeBlockInto(dst, &rec.blk, nil); err != nil {
		return fmt.Errorf("gompresso: block %d: %w", i, err)
	}
	return nil
}

// foreignSource is a gzip/zlib stream made randomly accessible by a seek
// index: its blocks are the index's checkpointed chunks, each decoded by
// seeding a deflate engine from the checkpoint's window.
type foreignSource struct{ idx *deflate.Index }

func (s foreignSource) blockOf(off int64) int64 { return int64(s.idx.ChunkOf(off)) }

func (s foreignSource) span(i int64) (start, n int64) {
	return s.idx.ChunkStart(int(i)), s.idx.ChunkLen(int(i))
}

func (s foreignSource) decodeInto(src io.ReaderAt, i int64, dst []byte) error {
	if err := s.idx.DecodeChunkInto(dst, src, int(i)); err != nil {
		return fmt.Errorf("gompresso: chunk %d: %w", i, err)
	}
	return nil
}

// NewReaderAt opens a container stored in the first size bytes of ra for
// concurrent positioned reads on the codec's worker budget and context.
// Random access needs the native container's block index, so foreign
// formats are rejected up front (pinned via WithFormat or sniffed from
// the magic bytes) and unrecognized input fails with an error wrapping
// ErrUnknownFormat — the same classification Decompress and NewReader
// give.
// With WithCache, every ReaderAt from this codec shares the codec's
// decoded-block cache (each under its own object identity).
func (c *Codec) NewReaderAt(ra io.ReaderAt, size int64) (*ReaderAt, error) {
	head := make([]byte, format.HeaderSize)
	n, err := ra.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("gompresso: reading header: %w", err)
	}
	head = head[:n]
	// Classify before parsing, so foreign and unrecognized inputs get the
	// same typed errors here as from Decompress/NewReader: random access
	// needs the native container's block structure. A format pinned to
	// FormatGompresso skips the sniff (mismatched input surfaces as a
	// native parse error, as in NewReader).
	form := c.form
	if form == FormatAuto {
		if form = sniffFormat(head); form == FormatAuto {
			return nil, unknownFormat(head)
		}
	}
	if form != FormatGompresso {
		return nil, errForeignReaderAt
	}
	hdr, err := format.ParseHeader(head)
	if err != nil {
		return nil, err
	}
	idx, _, err := format.OpenIndex(ra, size, hdr)
	if err != nil {
		return nil, err
	}
	return c.openReaderAt(ra, hdr, &nativeSource{hdr: hdr, idx: idx}), nil
}

// NewReaderAtWithIndex opens a foreign compressed stream (gzip/zlib —
// the first size bytes of ra) for the same concurrent positioned reads,
// random access coming from a seek index built over exactly those bytes
// (Reader.CollectIndex during a full decode, or a persisted sidecar via
// internal gzidx tooling / `gompresso index`). Checkpointed chunks play
// the role native blocks do: they key into the shared decoded-block
// cache and feed WriteRangeTo's window-parallel send path unchanged.
// The index is validated against size; keeping it fresh against a
// mutable source is the caller's job, as with any cached resolution.
func (c *Codec) NewReaderAtWithIndex(ra io.ReaderAt, size int64, idx *SeekIndex) (*ReaderAt, error) {
	if idx == nil {
		return nil, errors.New("gompresso: nil seek index")
	}
	if err := idx.Validate(size); err != nil {
		return nil, err
	}
	hdr := format.FileHeader{RawSize: uint64(idx.RawSize)}
	return c.openReaderAt(ra, hdr, foreignSource{idx}), nil
}

func (c *Codec) openReaderAt(ra io.ReaderAt, hdr format.FileHeader, src blockSource) *ReaderAt {
	r := &ReaderAt{ra: ra, hdr: hdr, src: src, workers: c.copt.Workers, ctx: c.ctx, cache: c.cache}
	if c.cache != nil {
		r.obj = blockcache.NextObject()
	}
	return r
}

// Header returns the container's file header.
func (r *ReaderAt) Header() FileHeader { return r.hdr }

// Forget drops every block this reader has left in the shared cache.
// The serving layer calls it when the backing object is replaced or
// quarantined, so stale or suspect bytes can never be served from
// cache. A no-op without a cache.
func (r *ReaderAt) Forget() {
	if r.cache != nil {
		r.cache.ForgetObject(r.obj)
	}
}

// recoverToErr converts a panic inside a parallel decode share into an
// error on that share. Decode runs on pool workers, where an escaped
// panic kills the process; a corrupt input that trips a decoder bug
// must instead degrade to a failed request.
func recoverToErr(errp *error) {
	if v := recover(); v != nil {
		*errp = fmt.Errorf("gompresso: decode panicked: %v\n%s", v, debug.Stack())
	}
}

// Size returns the decompressed size of the container.
func (r *ReaderAt) Size() int64 { return int64(r.hdr.RawSize) }

// ReadAt implements io.ReaderAt over the decompressed stream. A read that
// reaches the end of the stream returns the bytes read and io.EOF, per the
// io.ReaderAt contract. On a decode error it returns the count of bytes
// before the failing block, all of them valid.
func (r *ReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 {
		return 0, fmt.Errorf("gompresso: negative read offset %d", off)
	}
	raw := r.Size()
	if len(p) == 0 {
		if off > raw {
			return 0, io.EOF
		}
		return 0, nil
	}
	if off >= raw {
		return 0, io.EOF
	}
	want := int(min(int64(len(p)), raw-off))
	n, err := r.walk(r.ctx, off, int64(want), p[:want], nil)
	if err == nil && want < len(p) {
		err = io.EOF
	}
	return int(n), err
}

// WriteRangeTo streams the decompressed byte range [off, off+length) to
// w under ctx — the serving layer's send path. Blocks are obtained
// window-parallel (up to the worker budget per window, decodes running
// concurrently on the shared pool) and written directly from the buffers
// they were decoded into — with a cache attached, the shared refcounted
// cache buffers: zero copies between decode and the socket. The range is
// clamped to the stream: a range starting at or past the end writes
// nothing and returns io.EOF, mirroring ReadAt. On a decode error it
// returns the bytes written, which end before the failing block.
func (r *ReaderAt) WriteRangeTo(ctx context.Context, w io.Writer, off, length int64) (int64, error) {
	if off < 0 {
		return 0, fmt.Errorf("gompresso: negative read offset %d", off)
	}
	if length < 0 {
		return 0, fmt.Errorf("gompresso: negative range length %d", length)
	}
	if ctx == nil {
		ctx = r.ctx
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	raw := r.Size()
	if off >= raw {
		if length == 0 && off <= raw {
			return 0, nil
		}
		return 0, io.EOF
	}
	clamped := false
	if length > raw-off {
		length, clamped = raw-off, true
	}
	if length == 0 {
		return 0, nil
	}
	written, err := r.walk(ctx, off, length, nil, w)
	if err == nil && clamped {
		err = io.EOF
	}
	return written, err
}

// blockBufPool recycles whole-block decode buffers for uncached reads that
// cannot decode straight into the caller's memory.
var blockBufPool = sync.Pool{New: func() any { return new([]byte) }}

// pooledBlockBuf takes an n-byte buffer from blockBufPool.
func pooledBlockBuf(n int) *[]byte {
	bp := blockBufPool.Get().(*[]byte)
	if cap(*bp) < n {
		*bp = make([]byte, n)
	}
	*bp = (*bp)[:n]
	//lint:allow poolescape sanctioned lifecycle helper; callers pool.Put when done
	return bp
}

// record is a block record as read from the container and the Block parsed
// from it, whose Payload aliases buf. recordPool recycles the pair, so a
// cold decode reuses the parsed trees and size lists as well as the bytes.
type record struct {
	buf []byte
	blk format.Block
}

var recordPool = sync.Pool{New: func() any { return new(record) }}

// held is one walker window slot: a block's decoded bytes and whatever
// backs them — a pinned cache buffer, a pooled buffer, or (neither set)
// the caller's own memory.
type held struct {
	data []byte
	buf  *blockcache.Buf
	bp   *[]byte
	err  error
}

// release unpins or recycles the slot's backing buffer; data must not be
// touched afterwards.
func (h *held) release() {
	if h.buf != nil {
		h.buf.Release()
	}
	if h.bp != nil {
		blockBufPool.Put(h.bp)
	}
	*h = held{}
}

// walk serves the decompressed range [off, off+length) — non-empty and
// inside the stream — into p (ReadAt: len(p) == length) or, when p is nil,
// to w (WriteRangeTo). It walks the overlapped blocks in windows of up to
// `workers` blocks: each window obtains its blocks concurrently on the
// shared pool, then emits them in order, so held memory is bounded by
// workers × block size. The pool bounds global decode concurrency; a share
// that finds its block in flight elsewhere blocks only on that decode,
// which always runs inline on its winning caller, never behind this pool.
// It returns the bytes emitted, which on error end before the failing
// block.
func (r *ReaderAt) walk(ctx context.Context, off, length int64, p []byte, w io.Writer) (int64, error) {
	b0, bLast := r.src.blockOf(off), r.src.blockOf(off+length-1)
	window := int64(parallel.Workers(int(min(bLast-b0+1, 1<<20)), r.workers))
	slots := make([]held, window)
	defer func() {
		for i := range slots {
			slots[i].release()
		}
	}()
	var done int64
	for first := b0; first <= bLast; first += window {
		n := min(window, bLast-first+1)
		parallel.ForShare(int(n), r.workers, func(_, k int) {
			slots[k] = r.obtain(ctx, first+int64(k), p, off)
		})
		for k := range slots[:n] {
			h, bi := &slots[k], first+int64(k)
			if h.err != nil {
				return done, h.err
			}
			start, _ := r.src.span(bi)
			lo, hi := max(start, off), min(start+int64(len(h.data)), off+length)
			part := h.data[lo-start : hi-start]
			if p == nil {
				m, err := w.Write(part)
				done += int64(m)
				if err != nil {
					return done, err
				}
			} else {
				if h.buf != nil || h.bp != nil { // else decoded in place
					copy(p[lo-off:], part)
				}
				done += int64(len(part))
			}
			h.release()
			// Early-out between blocks only: after the final block the
			// range has been served in full, and a client that closes its
			// connection the moment the last byte arrives must not turn a
			// complete response into a cancellation error.
			if bi < bLast {
				if err := ctx.Err(); err != nil {
					return done, err
				}
			}
		}
	}
	return done, nil
}

// obtain makes block bi's decoded bytes available to the walker. With a
// cache attached they are a pinned cache buffer — a hit, a coalesced wait
// on another request's decode, or this call's own decode left resident for
// the next request. Without one the block decodes into the part of p (the
// request for the stream from off) it fills entirely, or into a pooled
// buffer when it only partly overlaps p or p is nil.
//
// Tracing: the cached path is a cache_lookup span; when this request's
// closure actually decodes, that work is a block_decode child span and the
// block counts as a cache miss for the request — blocks obtained without
// decoding (resident or coalesced) count as hits.
func (r *ReaderAt) obtain(ctx context.Context, bi int64, p []byte, off int64) (h held) {
	defer recoverToErr(&h.err)
	if h.err = ctx.Err(); h.err != nil {
		return h
	}
	start, n := r.src.span(bi)
	if r.cache != nil {
		lctx, lsp := obs.Start(ctx, obs.StageCacheLookup)
		lsp.SetN(bi)
		decoded := false
		h.buf, h.err = r.cache.GetOrDecode(ctx, blockcache.Key{Object: r.obj, Block: uint32(bi)}, int(n), func(dst []byte) error {
			decoded = true
			return r.decode(lctx, bi, dst)
		})
		lsp.End()
		if h.err == nil {
			obs.FromContext(ctx).CountCache(!decoded)
			h.data = h.buf.Bytes()
		}
		return h
	}
	if start >= off && start+n <= off+int64(len(p)) {
		h.data = p[start-off : start-off+n]
	} else {
		h.bp = pooledBlockBuf(int(n))
		h.data = *h.bp
	}
	h.err = r.decode(ctx, bi, h.data)
	return h
}

// decode is the one place a ReaderAt turns (object, block) into bytes:
// block bi from the backing source into dst, as a block_decode span with
// the source reads accrued to ctx's trace.
func (r *ReaderAt) decode(ctx context.Context, bi int64, dst []byte) error {
	_, sp := obs.Start(ctx, obs.StageBlockDecode)
	sp.SetN(bi)
	err := r.src.decodeInto(obs.SourceReaderAt(ctx, r.ra), bi, dst)
	sp.End()
	return err
}
