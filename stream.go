package gompresso

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"gompresso/internal/core"
	"gompresso/internal/deflate"
	"gompresso/internal/format"
	"gompresso/internal/obs"
	"gompresso/internal/parallel"
	"time"
)

// Reader streams the decompressed contents of a Gompresso container from an
// io.Reader through the host engine's fused fast path. Because every block
// is independently decompressible, the Reader runs a three-stage pipeline: a
// fetch stage reads compressed blocks ahead of the consumer, a decode stage
// fans them out to the shared worker pool (each worker slot owning a pooled
// DecodeScratch), and an in-order delivery stage hands finished blocks to
// Read/WriteTo in stream order. Readahead is bounded, so a stalled consumer
// back-pressures the pipeline and memory stays at
// O((Workers+Readahead) × BlockSize).
//
// With one worker (or a single-block container) the Reader degrades to the
// PR-1 synchronous loop: one block buffered, allocation-free steady state,
// no extra goroutines.
//
// Reader implements io.Reader and io.WriterTo; io.Copy uses WriteTo
// automatically. When the underlying reader is an io.Seeker, Reader also
// implements io.Seeker over the *decompressed* stream, using a block index
// read from the container's optional index trailer (WithIndex) or
// reconstructed by a one-time scan. A Reader is not safe for concurrent
// use; for concurrent random access see ReaderAt.
type Reader struct {
	src  io.Reader
	base int64 // container start offset within src; -1 if src cannot seek
	hdr  format.FileHeader
	pipe core.Pipeline // normalized by the codec
	ctx  context.Context
	idx  *format.Index

	// Synchronous mode (one worker):
	br  *format.BlockReader
	blk format.Block
	sc  *format.DecodeScratch

	// Pipelined mode:
	pl *pipe

	// Foreign-format mode (gzip/zlib/raw deflate): all reads delegate to
	// the two-pass parallel deflate pipeline; Seek is unsupported and
	// Header reports a synthetic header (32 KiB window, sizes unknown).
	fr *deflate.Reader

	buf    []byte // decompressed current block
	off    int    // bytes of buf already returned
	pos    int64  // logical stream offset of the next byte to serve
	skip   int    // bytes to discard from the next delivered block (post-Seek)
	err    error  // sticky; io.EOF after the last block
	closed bool
}

// NewReader returns a streaming decompressor for r running on the codec's
// worker budget and context. The input format follows WithFormat (see
// Decompress); foreign formats stream through the parallel two-pass
// deflate pipeline, with the whole compressed input buffered in memory (it
// needs random access for boundary scanning) and Seek unsupported.
func (c *Codec) NewReader(r io.Reader) (*Reader, error) {
	return c.NewReaderContext(c.ctx, r)
}

// NewReaderContext is NewReader under an explicit context, overriding
// the codec's own for this one stream — the shape a server needs, where
// cancellation is per request while the codec (worker budget, cache) is
// shared by all of them. A nil ctx selects the codec's context.
func (c *Codec) NewReaderContext(ctx context.Context, r io.Reader) (*Reader, error) {
	if ctx == nil {
		ctx = c.ctx
	}
	base := int64(-1)
	if s, ok := r.(io.Seeker); ok {
		if p, err := s.Seek(0, io.SeekCurrent); err == nil {
			base = p
		}
	}
	// Sniff the magic bytes before trusting any parser with the stream:
	// Gompresso containers take the native block pipeline below, foreign
	// formats take the two-pass deflate pipeline, and unrecognized input
	// fails with a typed ErrUnknownFormat instead of a parse error.
	head := make([]byte, 4)
	n, rerr := io.ReadFull(r, head)
	head = head[:n]
	if rerr != nil && rerr != io.EOF && rerr != io.ErrUnexpectedEOF {
		return nil, rerr
	}
	form := c.form
	if form == FormatAuto {
		if form = sniffFormat(head); form == FormatAuto {
			return nil, unknownFormat(head)
		}
	}
	if form != FormatGompresso {
		// Buffer the compressed stream once, seeded with the sniffed bytes
		// (append(head, ...) would copy the whole input a second time).
		var buf bytes.Buffer
		buf.Write(head)
		if _, err := buf.ReadFrom(r); err != nil {
			return nil, err
		}
		data := buf.Bytes()
		fr, err := deflate.NewReaderBytes(ctx, data, foreignForm(form), deflate.Options{
			Workers: c.pipe.Workers, Readahead: c.pipe.Readahead,
		})
		if err != nil {
			return nil, err
		}
		return &Reader{src: r, base: -1, pipe: c.pipe, ctx: ctx, fr: fr,
			hdr: format.FileHeader{Window: 32768}}, nil
	}
	// Native container: rewind seekable sources so the block reader owns
	// the stream from the start (preserving Seek); splice the sniffed
	// bytes back in front of pipes.
	src := r
	if s, ok := r.(io.Seeker); ok && base >= 0 {
		if _, err := s.Seek(base, io.SeekStart); err != nil {
			return nil, err
		}
	} else {
		src = io.MultiReader(bytes.NewReader(head), r)
		base = -1
	}
	br, err := format.NewBlockReader(src)
	if err != nil {
		return nil, err
	}
	rd := &Reader{src: src, base: base, hdr: br.Header(), pipe: c.pipe, ctx: ctx}
	rd.start(br, 0)
	return rd, nil
}

// Header returns the container's file header.
func (r *Reader) Header() FileHeader { return r.hdr }

// SeekIndex is a seek index over a foreign (gzip/zlib) stream: block-
// boundary checkpoints — compressed bit offset, decompressed offset,
// 32 KiB window — captured during a full decode, enough to re-enter the
// stream at any checkpoint. It is what Codec.NewReaderAtWithIndex turns
// into random access, and what the sidecar tooling persists.
type SeekIndex = deflate.Index

// CollectForeignIndex arranges for this Reader to capture a SeekIndex as
// a side effect of fully decoding a foreign stream: checkpoints every
// `every` decompressed bytes (0 selects the default ~1 MiB spacing). The
// serving layer calls it before its first counting decode of a `.gz`
// object, so the index costs no extra pass. It reports false — and
// captures nothing — on native containers (which carry their own block
// index) or once reading has begun.
func (r *Reader) CollectForeignIndex(every int64) bool {
	return r.fr != nil && r.fr.CollectIndex(every) == nil
}

// ForeignIndex returns the index captured by CollectForeignIndex, or nil
// before the stream has fully decoded (the index is only complete at
// EOF).
func (r *Reader) ForeignIndex() *SeekIndex {
	if r.fr == nil {
		return nil
	}
	idx, err := r.fr.Index()
	if err != nil {
		return nil
	}
	return idx
}

// workersFor returns the decode concurrency for a stream starting at block
// first: the reader's normalized worker budget, clamped to the blocks
// that remain. Requests above the shared pool's size keep their pipeline
// shape (buffering, readahead) but gain no extra concurrency — the ordered
// queue clamps execution to the pool.
func (r *Reader) workersFor(first uint32) int {
	w := r.pipe.Workers
	if rem := int(r.hdr.NumBlocks) - int(first); w > rem {
		w = rem
	}
	if w < 1 {
		w = 1
	}
	return w
}

// start begins decoding blocks from br (positioned at block first),
// choosing the synchronous loop or the pipeline by worker count.
func (r *Reader) start(br *format.BlockReader, first uint32) {
	w := r.workersFor(first)
	if w <= 1 {
		r.br = br
		if r.sc == nil && r.hdr.Variant == format.VariantBit {
			r.sc = format.GetScratch()
		}
		return
	}
	r.pl = newPipe(r.ctx, r.hdr, w, r.pipe.Readahead)
	go r.pl.fetch(br)
}

// advance makes the next decompressed block current. It sets r.err on
// failure or at end of stream.
func (r *Reader) advance() {
	if r.pl != nil {
		if r.buf != nil {
			r.pl.bufs <- r.buf // capacity covers every buffer; never blocks
			r.buf = nil
		}
		r.off = 0
		res, ok := r.pl.ord.Next()
		if !ok {
			r.err = errClosed
			return
		}
		if res.err != nil {
			if res.buf != nil {
				r.pl.bufs <- res.buf
			}
			r.err = res.err
			return
		}
		r.buf = res.buf
	} else {
		r.advanceSync()
	}
	if r.err == nil && r.skip > 0 {
		n := r.skip
		if n > len(r.buf) {
			n = len(r.buf)
		}
		r.off, r.skip = n, r.skip-n
	}
}

// advanceSync is the one-worker path: fetch and decode inline, reusing one
// block and one output buffer.
func (r *Reader) advanceSync() {
	if err := r.ctx.Err(); err != nil {
		r.err = err
		return
	}
	if err := r.br.Next(&r.blk); err != nil {
		r.err = err
		return
	}
	r.off = 0
	if r.buf, r.err = decodeBlock(r.ctx, r.hdr, &r.blk, r.buf, r.sc); r.err != nil {
		// Never serve a block that failed to decode: empty the window so
		// Read/WriteTo report the error instead of undecoded bytes.
		r.buf = r.buf[:0]
	}
}

// decodeBlock is the Reader's per-block body, shared by the synchronous
// loop and the pipeline's decode stage: size buf to the block (growing it
// on first use), decode through format's single entry point, and accrue
// the decode to ctx's trace. Accrual is cumulative — one span per block
// would swamp the trace table on long streams — atomic, so pool workers
// may call this concurrently, and reads the clock only when a trace rode
// in on the context.
func decodeBlock(ctx context.Context, hdr format.FileHeader, blk *format.Block, buf []byte, sc *format.DecodeScratch) ([]byte, error) {
	if cap(buf) < blk.RawLen {
		buf = make([]byte, blk.RawLen)
	}
	buf = buf[:blk.RawLen]
	trace := obs.FromContext(ctx)
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	err := hdr.DecodeBlockInto(buf, blk, sc)
	if trace != nil {
		trace.Cum(obs.StageBlockDecode, time.Since(t0), 1)
	}
	if err != nil {
		err = fmt.Errorf("gompresso: %w", err)
	}
	return buf, err
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.fr != nil {
		n, err := r.fr.Read(p)
		r.pos += int64(n)
		return n, err
	}
	if len(p) == 0 {
		// Zero-length reads must not trigger block decodes or pipeline
		// stalls; io.Reader allows 0, nil for len(p) == 0.
		return 0, nil
	}
	for r.off == len(r.buf) {
		if r.err != nil {
			return 0, r.err
		}
		r.advance()
	}
	n := copy(p, r.buf[r.off:])
	r.off += n
	r.pos += int64(n)
	return n, nil
}

// WriteTo implements io.WriterTo, streaming whole decompressed blocks to w.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	if r.fr != nil {
		n, err := r.fr.WriteTo(w)
		r.pos += n
		return n, err
	}
	var total int64
	for {
		if r.off < len(r.buf) {
			n, err := w.Write(r.buf[r.off:])
			r.off += n
			r.pos += int64(n)
			total += int64(n)
			if err != nil {
				return total, err
			}
		}
		if r.err != nil {
			if r.err == io.EOF {
				return total, nil
			}
			return total, r.err
		}
		r.advance()
	}
}

var (
	errClosed      = errors.New("gompresso: reader closed")
	errNotSeeker   = errors.New("gompresso: underlying reader does not support seeking")
	errForeignSeek = errors.New("gompresso: seeking is not supported for foreign formats")
)

// Seek implements io.Seeker over the decompressed stream. It requires the
// underlying reader to be an io.Seeker. The first Seek loads the block
// index: from the container's index trailer when present (O(NumBlocks)
// bytes read), otherwise by scanning the block section once. Seeking
// clears a sticky decode error or EOF; seeking past the end is allowed and
// subsequent reads return io.EOF.
func (r *Reader) Seek(offset int64, whence int) (int64, error) {
	if r.closed {
		return 0, errClosed
	}
	if r.fr != nil {
		return 0, errForeignSeek
	}
	rs, ok := r.src.(io.ReadSeeker)
	if !ok || r.base < 0 {
		return 0, errNotSeeker
	}
	var target int64
	switch whence {
	case io.SeekStart:
		target = offset
	case io.SeekCurrent:
		target = r.pos + offset
	case io.SeekEnd:
		target = int64(r.hdr.RawSize) + offset
	default:
		return 0, fmt.Errorf("gompresso: invalid whence %d", whence)
	}
	if target < 0 {
		return 0, fmt.Errorf("gompresso: negative seek position %d", target)
	}
	// Fast path: the target is inside the block currently buffered.
	if r.err == nil && r.skip == 0 && r.buf != nil {
		start := r.pos - int64(r.off)
		if target >= start && target < start+int64(len(r.buf)) {
			r.off = int(target - start)
			r.pos = target
			return target, nil
		}
	}
	// The underlying reader is shared with the fetch goroutine; stop the
	// pipeline before moving the source out from under it.
	r.stopDecoding()
	if err := r.ensureIndex(rs); err != nil {
		r.err = err
		return 0, err
	}
	block := r.hdr.NumBlocks // past the last block: reads yield io.EOF
	var inner int64
	if raw := int64(r.hdr.RawSize); target < raw {
		if bs := int64(r.hdr.BlockSize); bs > 0 {
			block = uint32(target / bs)
			inner = target % bs
		} else {
			block, inner = 0, target
		}
	}
	if err := r.restart(rs, block, inner); err != nil {
		r.err = err
		return 0, err
	}
	r.pos = target
	return target, nil
}

// stopDecoding tears down the decode machinery (pipeline or sync reader)
// and drops the current buffer, leaving the Reader ready for restart.
func (r *Reader) stopDecoding() {
	if r.pl != nil {
		r.pl.shutdown()
		r.pl = nil
	}
	r.br = nil
	// Drop the current buffer unconditionally: it belongs to the old
	// pipeline (whose recycle channels are gone) or to the old sync loop,
	// and carrying it into a fresh pipeline would break the buffer-count
	// invariant behind advance's non-blocking deposit.
	r.buf = nil
	r.off = 0
}

// ensureIndex loads the block index on the first Seek.
func (r *Reader) ensureIndex(rs io.ReadSeeker) error {
	if r.idx != nil {
		return nil
	}
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	ra := readerAtFunc(func(p []byte, off int64) (int, error) {
		if _, err := rs.Seek(r.base+off, io.SeekStart); err != nil {
			return 0, err
		}
		return io.ReadFull(rs, p)
	})
	r.idx, _, err = format.OpenIndex(ra, end-r.base, r.hdr)
	return err
}

// readerAtFunc adapts a positioned-read closure to io.ReaderAt.
type readerAtFunc func(p []byte, off int64) (int, error)

func (f readerAtFunc) ReadAt(p []byte, off int64) (int, error) { return f(p, off) }

// restart repositions the stream at the given block, discarding inner bytes
// of its decoded output, and spins the decode machinery back up.
func (r *Reader) restart(rs io.ReadSeeker, block uint32, inner int64) error {
	r.stopDecoding()
	r.err = nil
	r.skip = int(inner)
	off := r.idx.Offsets[block]
	if _, err := rs.Seek(r.base+off, io.SeekStart); err != nil {
		return err
	}
	r.start(format.NewBlockReaderAt(r.src, r.hdr, block, off), block)
	return nil
}

// Close shuts down the pipeline, waits for in-flight block decodes, and
// releases all pooled buffers and decode scratch. It does not close the
// underlying reader. Closing an exhausted Reader is optional but
// recommended for pipelined readers, since it is what stops the fetch
// goroutine early when the stream is abandoned mid-way.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.fr != nil {
		r.fr.Close()
		r.fr = nil
	}
	if r.pl != nil {
		r.pl.shutdown()
		r.pl = nil
	}
	if r.sc != nil {
		format.PutScratch(r.sc)
		r.sc = nil
	}
	r.buf = nil
	if r.err == nil {
		r.err = errClosed
	}
	return nil
}

// blockResult is one delivered pipeline block: its decoded bytes, or the
// error (io.EOF at end of stream) that ends the stream at this position.
type blockResult struct {
	buf []byte
	err error
}

// pipe is the pipelined Reader's machinery. Buffer ownership moves through
// channels: compressed blocks cycle fetch→decode→fetch, decoded buffers
// cycle fetch→decode→consumer→fetch, and decode scratch cycles among at
// most `workers` concurrent decode tasks, so the steady state allocates
// nothing and total memory is bounded by the channel capacities.
type pipe struct {
	hdr    format.FileHeader
	ctx    context.Context
	ord    *parallel.Ordered[blockResult]
	bufs   chan []byte                // decoded-output recycle, cap readahead+1
	blocks chan *format.Block         // compressed-block recycle, cap readahead+1
	scs    chan *format.DecodeScratch // per-worker decode scratch (Bit variant)
	nsc    int
	stop   chan struct{}
	once   sync.Once
	done   chan struct{} // fetch goroutine exited
}

func newPipe(ctx context.Context, hdr format.FileHeader, workers, readahead int) *pipe {
	p := &pipe{
		hdr:    hdr,
		ctx:    ctx,
		ord:    parallel.NewOrdered[blockResult](workers, readahead),
		bufs:   make(chan []byte, readahead+1),
		blocks: make(chan *format.Block, readahead+1),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	for i := 0; i < readahead+1; i++ {
		p.bufs <- nil // grown to block size on first use
		p.blocks <- new(format.Block)
	}
	if hdr.Variant == format.VariantBit {
		// Scratch is provisioned for achievable concurrency, not the raw
		// request: the ordered queue admits at most min(workers, pool size)
		// concurrent decodes, so extra requested workers must not pin extra
		// pooled decode tables.
		p.nsc = parallel.Workers(workers, workers)
		p.scs = make(chan *format.DecodeScratch, p.nsc)
		for i := 0; i < p.nsc; i++ {
			p.scs <- format.GetScratch()
		}
	}
	return p
}

// fetch is the pipeline's first stage: it reads compressed blocks and
// submits decode tasks in stream order. The terminal br.Next error
// (io.EOF, or a malformed-container error) is submitted through the same
// ordered queue, so the consumer sees every decoded block before it. A
// cancelled Reader context ends the stream the same way, with ctx.Err()
// delivered after the blocks already submitted. (For the default
// background context Done() is nil and the cases never fire.)
func (p *pipe) fetch(br *format.BlockReader) {
	defer close(p.done)
	defer p.ord.Finish()
	for {
		var blk *format.Block
		select {
		case blk = <-p.blocks:
		case <-p.stop:
			return
		case <-p.ctx.Done():
			p.ord.Submit(func() blockResult { return blockResult{err: p.ctx.Err()} })
			return
		}
		if err := br.Next(blk); err != nil {
			p.ord.Submit(func() blockResult { return blockResult{err: err} })
			return
		}
		var buf []byte
		select {
		case buf = <-p.bufs:
		case <-p.stop:
			return
		case <-p.ctx.Done():
			p.ord.Submit(func() blockResult { return blockResult{err: p.ctx.Err()} })
			return
		}
		b := blk
		if !p.ord.Submit(func() blockResult { return p.decode(b, buf) }) {
			return
		}
	}
}

// decode is the pipeline's second stage, run on the shared worker pool.
// The compressed block recycles as soon as its bytes are consumed; the
// decoded buffer travels onward to the consumer.
func (p *pipe) decode(blk *format.Block, buf []byte) blockResult {
	var sc *format.DecodeScratch
	if p.scs != nil {
		// Never blocks: Ordered admits at most nsc concurrent decodes, and
		// each returns its scratch before releasing its concurrency slot.
		sc = <-p.scs
	}
	buf, err := decodeBlock(p.ctx, p.hdr, blk, buf, sc)
	if sc != nil {
		p.scs <- sc
	}
	p.blocks <- blk
	return blockResult{buf: buf, err: err}
}

// shutdown stops the fetch stage, waits for every in-flight decode, and
// returns the pipeline's scratch to the package pool. Idempotent.
func (p *pipe) shutdown() {
	p.once.Do(func() { close(p.stop) })
	p.ord.Stop()
	<-p.done
	p.ord.Wait()
	for i := 0; i < p.nsc; i++ {
		format.PutScratch(<-p.scs)
	}
	p.nsc = 0
}
