package gompresso

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"

	"gompresso/internal/deflate"
	"gompresso/internal/format"
	"gompresso/internal/obs"
	"gompresso/internal/parallel"
	"time"
)

// Reader streams the decompressed contents of a Gompresso container from an
// io.Reader through the host engine's fused fast path. Because every block
// is independently decompressible, the Reader keeps a queue of block decodes
// running on the shared worker pool ahead of the consumer, and the calling
// goroutine drives it: each Read/WriteTo that needs a block first frames
// compressed records off the source and submits their decodes until
// 2×Workers blocks are out, then takes the oldest. The Reader starts no
// goroutines of its own — the source is only ever read by the caller, and a
// Reader dropped without Close leaves nothing running — and memory stays at
// O(Workers × BlockSize).
//
// Records and decoded-block buffers come from package pools and are returned as
// blocks are served and at Close, so a warm process allocates a few fixed
// objects per stream, not its blocks.
//
// Reader implements io.Reader and io.WriterTo; io.Copy uses WriteTo
// automatically. When the underlying reader is an io.Seeker, Reader also
// implements io.Seeker over the *decompressed* stream, using a block index
// read from the container's optional index trailer (WithIndex) or
// reconstructed by a one-time scan. A Reader is not safe for concurrent
// use; for concurrent random access see ReaderAt.
type Reader struct {
	src     io.Reader
	base    int64 // container start offset within src; -1 if src cannot seek
	hdr     format.FileHeader
	workers int // the codec's worker budget
	ctx     context.Context
	idx     *format.Index

	// Native mode: br frames records off src in stream order; ord, when the
	// stream has one, holds the decodes of the `out` blocks framed and not
	// yet taken, and tail is what ends the stream once they have been.
	br   *format.BlockReader
	ord  *parallel.Ordered[blockResult]
	out  int
	tail error

	// Foreign-format mode (gzip/zlib/raw deflate): all reads delegate to
	// the two-pass parallel deflate pipeline; Seek is unsupported and
	// Header reports a synthetic header (32 KiB window, sizes unknown).
	fr *deflate.Reader

	bp     *[]byte // pooled buffer behind buf; back to blockBufPool once served
	buf    []byte  // decompressed current block
	off    int     // bytes of buf already returned
	pos    int64   // logical stream offset of the next byte to serve
	skip   int     // bytes to discard from the next delivered block (post-Seek)
	err    error   // sticky; io.EOF after the last block
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
// shared by all of them. A nil ctx means the codec's context.
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
		fr, err := deflate.NewReaderBytes(ctx, data, foreignForm(form), deflate.Options{Workers: c.copt.Workers})
		if err != nil {
			return nil, err
		}
		return &Reader{src: r, base: -1, ctx: ctx, fr: fr, hdr: format.FileHeader{Window: 32768}}, nil
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
	rd := &Reader{src: src, base: base, hdr: br.Header(), workers: c.copt.Workers, ctx: ctx}
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

// readahead is the streaming pipelines' back-pressure rule: a Reader and a
// Writer each keep at most 2×workers blocks submitted and not yet taken (the
// foreign decoder has its own, 2×(workers−1) speculative chunks). The Reader
// and the Writer feed and drain their queue from one goroutine, so they hold
// themselves to it: parallel.Ordered would block a Submit past the bound on a
// Next only the same caller could make.
func readahead(workers int) int { return 2 * workers }

// start begins decoding blocks from br (positioned at block first). A stream
// with more than one worker and more than one block left gets a queue.
func (r *Reader) start(br *format.BlockReader, first uint32) {
	r.br = br
	if w := min(r.workers, int(r.hdr.NumBlocks)-int(first)); w > 1 {
		r.ord = parallel.NewOrdered[blockResult](w, readahead(r.workers))
	}
}

// advance makes the next decompressed block current, recycling the one just
// served. It sets r.err on failure or at end of stream, and never serves a
// block that failed to decode: the window stays empty so Read/WriteTo report
// the error instead of undecoded bytes.
func (r *Reader) advance() {
	r.releaseBuf()
	res := r.next()
	if r.err = res.err; r.err != nil {
		return
	}
	r.bp, r.buf = res.bp, *res.bp
	if r.skip > 0 {
		n := min(r.skip, len(r.buf))
		r.off, r.skip = n, r.skip-n
	}
}

// next frames records off the source and submits their decodes until
// readahead blocks are out or the source ends, then takes the oldest. What
// ends the source — io.EOF, a malformed-container error, a cancelled context —
// is kept in r.tail and delivered after every block framed before it.
func (r *Reader) next() blockResult {
	for r.tail == nil && r.out < readahead(r.workers) {
		rec := recordPool.Get().(*record)
		err := r.ctx.Err()
		if err == nil {
			err = r.br.Next(&rec.blk)
		}
		if err != nil {
			recordPool.Put(rec)
			r.tail = err
			break
		}
		if r.ord == nil {
			// With one worker the caller is that worker: run the task here.
			return decodeBlock(r.ctx, r.hdr, rec)
		}
		r.ord.Submit(func() blockResult { return decodeBlock(r.ctx, r.hdr, rec) })
		r.out++
	}
	if r.out == 0 {
		return blockResult{err: r.tail}
	}
	r.out--
	res, _ := r.ord.Next()
	return res
}

// releaseBuf returns the current block's buffer to the pool.
func (r *Reader) releaseBuf() {
	if r.bp != nil {
		blockBufPool.Put(r.bp)
	}
	r.bp, r.buf, r.off = nil, nil, 0
}

// decodeBlock is the Reader's per-block body, run on the caller or on the
// pool: decode rec's block through format's single entry point into a pooled
// buffer that travels on to the consumer, recycle rec — its bytes are
// consumed — and accrue the decode to ctx's trace. Accrual is cumulative —
// one span per block would swamp the trace table on long streams — atomic,
// so pool workers may call this concurrently, and reads the clock only when
// a trace rode in on the context.
func decodeBlock(ctx context.Context, hdr format.FileHeader, rec *record) blockResult {
	bp := pooledBlockBuf(rec.blk.RawLen)
	trace := obs.FromContext(ctx)
	var t0 time.Time
	if trace != nil {
		t0 = time.Now()
	}
	err := hdr.DecodeBlockInto(*bp, &rec.blk, nil)
	if trace != nil {
		trace.Cum(obs.StageBlockDecode, time.Since(t0), 1)
	}
	recordPool.Put(rec)
	if err != nil {
		blockBufPool.Put(bp)
		return blockResult{err: fmt.Errorf("gompresso: %w", err)}
	}
	return blockResult{bp: bp}
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
	// The block reader's position in the source is about to be lost.
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

// stopDecoding waits for the blocks that are out, returns their buffers and
// the current one to the pool, and leaves the Reader ready for restart.
func (r *Reader) stopDecoding() {
	for ; r.out > 0; r.out-- {
		if res, _ := r.ord.Next(); res.bp != nil {
			blockBufPool.Put(res.bp)
		}
	}
	r.br, r.ord, r.tail = nil, nil, nil
	r.releaseBuf()
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

// restart repositions the stopped stream at the given block, discarding inner
// bytes of its decoded output.
func (r *Reader) restart(rs io.ReadSeeker, block uint32, inner int64) error {
	r.err = nil
	r.skip = int(inner)
	off := r.idx.Offsets[block]
	if _, err := rs.Seek(r.base+off, io.SeekStart); err != nil {
		return err
	}
	r.start(format.NewBlockReaderAt(r.src, r.hdr, block, off), block)
	return nil
}

// Close waits for in-flight block decodes and returns every pooled buffer
// the Reader holds. It does not close the underlying reader. Closing is
// optional for a native container — an abandoned Reader's decodes finish on
// the pool and are collected with it — and is what stops a foreign stream's
// decoder.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.fr != nil {
		r.fr.Close()
		r.fr = nil
	}
	r.stopDecoding()
	if r.err == nil {
		r.err = errClosed
	}
	return nil
}

// blockResult is one delivered block: its decoded bytes in a pooled buffer
// the receiver owes to blockBufPool, or the error (io.EOF at end of stream)
// that ends the stream at this position.
type blockResult struct {
	bp  *[]byte
	err error
}
