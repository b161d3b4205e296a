package gompresso

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"gompresso/internal/core"
	"gompresso/internal/format"
	"gompresso/internal/parallel"
)

// Writer is the compression-side counterpart of Reader: a streaming
// compressor that cuts its input into independent blocks, compresses them
// concurrently on the shared worker pool, and emits a valid Gompresso
// container (header, block records in stream order, optional GPIX index
// trailer). Obtain one from Codec.NewWriter. The emitted container is
// byte-identical to what Codec.Compress would produce for the concatenated
// input.
//
// The pipeline mirrors the Reader's: Write/ReadFrom fill one raw block at
// a time and submit full blocks to a parallel.Ordered queue; encode tasks
// run on the shared pool, at most Workers concurrently; a drain goroutine
// receives finished records in submission order and writes them out. At
// most Readahead blocks may be finished-but-unwritten, so a stalled
// destination back-pressures Write and memory stays at
// O((Workers+Readahead) × BlockSize). With Workers=1 the Writer degrades
// to a synchronous encoder: no extra goroutines, each block compressed and
// written inline.
//
// The container header carries the total raw size and block count, which a
// streaming compressor only knows at Close. When the destination is an
// io.WriteSeeker (an *os.File, say) the Writer streams records directly
// after a placeholder header and backpatches the header at Close, keeping
// memory bounded. Otherwise compressed records spool in memory and the
// container is written at Close — the spool holds compressed bytes only,
// but very large streams should compress to a seekable destination.
//
// Writer implements io.WriteCloser and io.ReaderFrom (io.Copy streams
// source blocks straight into the block buffer). A Writer is not safe for
// concurrent use. Close must be called to finish the container; a Writer
// whose context is cancelled or that hit an error still releases its
// pipeline resources on Close.
type Writer struct {
	dst    io.Writer
	ws     io.WriteSeeker // non-nil: stream-and-backpatch mode
	wsBase int64          // container start offset within ws
	spool  bytes.Buffer   // non-seekable mode: compressed block records

	opt   core.Options  // normalized compression options
	pipe  core.Pipeline // normalized workers/readahead
	ctx   context.Context
	begin time.Time

	cur []byte // raw block being filled; cap is always opt.BlockSize
	rec []byte // sync mode: reusable encoded-record buffer

	// Parallel pipeline, nil until the first block completes:
	ord     *parallel.Ordered[writeResult]
	free    chan []byte   // recycled raw block buffers
	drained chan struct{} // drain goroutine exited
	failed  chan struct{} // closed by drain after setting derr
	derr    error         // drain-side error; read after failed or drained
	unwatch chan struct{} // stops the context watcher

	// Serialization state: owned by the drain goroutine in parallel mode
	// (until drained closes), by the calling goroutine otherwise.
	offsets  []int64 // container offset of each emitted record
	written  int64   // compressed bytes emitted after the header
	rawTotal uint64
	stats    CompressStats

	headerDone bool
	err        error // sticky Writer-side error
	closed     bool
	closeErr   error
}

// writeResult is one block's trip through the parallel pipeline: its
// encoded record, or the error that poisons the stream. A result with a
// flush channel is a Flush barrier marker.
type writeResult struct {
	rec    []byte
	rawLen int
	bs     core.BlockStats
	err    error
	flush  chan struct{}
}

var errWriterClosed = errors.New("gompresso: writer closed")

// recPool recycles encoded-record buffers across every Writer's parallel
// pipeline. It is deliberately not a field of Writer: the runtime's pool
// registry references each sync.Pool it has seen for two collection cycles,
// and a Pool embedded in a Writer would keep the whole closed Writer — spool,
// block buffers and all — reachable that long.
var recPool = sync.Pool{New: func() any { return new([]byte) }}

// NewWriter returns a parallel streaming compressor writing a Gompresso
// container to w with the codec's configuration; see Writer for the
// pipeline and output-mode details. The container's bytes are identical to
// what Codec.Compress would produce for the concatenated input.
func (c *Codec) NewWriter(w io.Writer) *Writer {
	wr := &Writer{dst: w, opt: c.copt, pipe: c.pipe, ctx: c.ctx, begin: time.Now()}
	if ws, ok := w.(io.WriteSeeker); ok {
		// Probe: a pipe or terminal satisfies the interface but cannot
		// actually seek; fall back to the spool for those.
		if base, err := ws.Seek(0, io.SeekCurrent); err == nil {
			wr.ws, wr.wsBase = ws, base
		}
	}
	wr.cur = make([]byte, 0, c.copt.BlockSize)
	return wr
}

// check returns the error that should abort the current call, making it
// sticky: a previous failure, a closed Writer, a pipeline (drain-side)
// failure, or a cancelled context.
func (w *Writer) check() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errWriterClosed
		return w.err
	}
	if w.failed != nil {
		select {
		case <-w.failed:
			w.err = w.derr
			return w.err
		default:
		}
	}
	if err := w.ctx.Err(); err != nil {
		w.err = err
		return err
	}
	return nil
}

// Write implements io.Writer, buffering p into block-size chunks and
// submitting each completed block to the compression pipeline.
func (w *Writer) Write(p []byte) (int, error) {
	if err := w.check(); err != nil {
		return 0, err
	}
	var n int
	for len(p) > 0 {
		if len(w.cur) == cap(w.cur) {
			if err := w.submit(); err != nil {
				w.err = err
				return n, err
			}
		}
		c := copy(w.cur[len(w.cur):cap(w.cur)], p)
		w.cur = w.cur[:len(w.cur)+c]
		p = p[c:]
		n += c
	}
	return n, nil
}

// ReadFrom implements io.ReaderFrom, reading r directly into the Writer's
// block buffers (io.Copy selects it automatically, so streaming a file
// into the Writer performs no intermediate copies).
func (w *Writer) ReadFrom(r io.Reader) (int64, error) {
	if err := w.check(); err != nil {
		return 0, err
	}
	var total int64
	for {
		if len(w.cur) == cap(w.cur) {
			if err := w.submit(); err != nil {
				w.err = err
				return total, err
			}
		}
		n, err := r.Read(w.cur[len(w.cur):cap(w.cur)])
		w.cur = w.cur[:len(w.cur)+n]
		total += int64(n)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		if err := w.check(); err != nil {
			return total, err
		}
	}
}

// submit hands the current (full, or final partial) block to the encoder
// and readies a fresh buffer. Workers=1 encodes and emits inline.
func (w *Writer) submit() error {
	if len(w.cur) == 0 {
		return nil
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	if w.pipe.Workers <= 1 {
		return w.encodeSync()
	}
	w.ensurePipeline()
	raw := w.cur
	if !w.ord.Submit(func() writeResult { return w.encode(raw) }) {
		// Only the context watcher stops the queue.
		if err := w.ctx.Err(); err != nil {
			return err
		}
		return errWriterClosed
	}
	// Never blocks indefinitely: every in-flight encode task deposits its
	// raw buffer here when it finishes, and tasks never block.
	w.cur = (<-w.free)[:0]
	if cap(w.cur) < w.opt.BlockSize {
		w.cur = make([]byte, 0, w.opt.BlockSize)
	}
	return nil
}

// encodeSync is the Workers=1 path: compress and emit the block inline,
// reusing one record buffer.
func (w *Writer) encodeSync() error {
	if err := w.ctx.Err(); err != nil {
		return err
	}
	rec, bs, err := core.EncodeBlockRecord(w.rec[:0], w.cur, w.opt)
	w.rec = rec
	if err != nil {
		return fmt.Errorf("gompresso: block %d: %w", len(w.offsets), err)
	}
	if err := w.emit(rec, len(w.cur), bs); err != nil {
		return err
	}
	w.cur = w.cur[:0]
	return nil
}

// ensurePipeline lazily starts the parallel machinery: the ordered queue,
// the raw-buffer free list, the drain goroutine, and (for cancellable
// contexts) a watcher that stops the queue on cancellation.
func (w *Writer) ensurePipeline() {
	if w.ord != nil {
		return
	}
	ra := w.pipe.Readahead
	w.ord = parallel.NewOrdered[writeResult](w.pipe.Workers, ra)
	// Raw buffers in flight ≤ readahead (the queue's undelivered bound)
	// plus the one being filled; the free list's capacity covers all of
	// them so encode-side deposits never block.
	w.free = make(chan []byte, ra+1)
	for i := 0; i < ra; i++ {
		w.free <- nil // grown to BlockSize on first use
	}
	w.drained = make(chan struct{})
	w.failed = make(chan struct{})
	if w.ctx.Done() != nil {
		w.unwatch = make(chan struct{})
		go func() {
			select {
			case <-w.ctx.Done():
				w.ord.Stop()
			case <-w.unwatch:
			}
		}()
	}
	go w.drain()
}

// encode runs on the worker pool: it compresses one raw block into a
// pooled record buffer and recycles the raw buffer as soon as its bytes
// are consumed.
func (w *Writer) encode(raw []byte) writeResult {
	res := writeResult{rawLen: len(raw)}
	if err := w.ctx.Err(); err != nil {
		res.err = err
	} else {
		rp := recPool.Get().(*[]byte)
		rec, bs, err := core.EncodeBlockRecord((*rp)[:0], raw, w.opt)
		*rp = rec
		res.rec, res.bs, res.err = rec, bs, err
	}
	w.free <- raw
	return res
}

// drain is the pipeline's ordered consumer: it writes finished records to
// the destination in submission order, releases Flush barriers, and after
// the first failure keeps consuming (recycling buffers) so producers are
// never stranded on back-pressure.
func (w *Writer) drain() {
	defer close(w.drained)
	for {
		res, ok := w.ord.Next()
		if !ok {
			return
		}
		if res.flush != nil {
			close(res.flush)
			continue
		}
		if w.derr == nil {
			if res.err != nil {
				w.fail(fmt.Errorf("gompresso: block %d: %w", len(w.offsets), res.err))
			} else if err := w.emit(res.rec, res.rawLen, res.bs); err != nil {
				w.fail(err)
			}
		}
		if res.rec != nil {
			rec := res.rec
			recPool.Put(&rec)
		}
	}
}

// fail records the drain-side error and signals producers. Only the first
// error is kept.
func (w *Writer) fail(err error) {
	if w.derr == nil {
		w.derr = err
		close(w.failed)
	}
}

// emit writes one encoded block record to the destination (directly in
// seekable mode, to the spool otherwise) and updates the container
// accounting shared with Close.
func (w *Writer) emit(rec []byte, rawLen int, bs core.BlockStats) error {
	w.offsets = append(w.offsets, int64(format.HeaderSize)+w.written)
	var err error
	if w.ws != nil {
		_, err = w.ws.Write(rec)
	} else {
		_, err = w.spool.Write(rec)
	}
	if err != nil {
		return fmt.Errorf("gompresso: writing block %d: %w", len(w.offsets)-1, err)
	}
	w.written += int64(len(rec))
	w.rawTotal += uint64(rawLen)
	w.stats.Accumulate(bs)
	return nil
}

// ensureHeader emits the placeholder header in seekable mode (backpatched
// with the final totals at Close). In spool mode the header is written at
// Close, when its contents are known.
func (w *Writer) ensureHeader() error {
	if w.headerDone || w.ws == nil {
		w.headerDone = true
		return nil
	}
	w.headerDone = true
	hb := format.AppendHeader(nil, w.opt.Header(0, 0))
	if _, err := w.ws.Write(hb); err != nil {
		return fmt.Errorf("gompresso: writing header: %w", err)
	}
	return nil
}

// Flush blocks until every block completed so far has been compressed and
// written out (to the destination in seekable mode, to the spool
// otherwise). Flush never ends a block early: the container format
// requires every non-final block to be exactly BlockSize raw bytes, so
// bytes short of a block boundary stay buffered until more input arrives
// or Close seals the final block — data becomes durable at block
// granularity.
func (w *Writer) Flush() error {
	if err := w.check(); err != nil {
		return err
	}
	// A block that filled exactly to the boundary is completed input: it
	// normally rides along with the next Write, but Flush must push it.
	if len(w.cur) == cap(w.cur) {
		if err := w.submit(); err != nil {
			w.err = err
			return err
		}
	}
	if w.ord == nil {
		return nil // sync mode emits eagerly; nothing in flight
	}
	ch := make(chan struct{})
	if !w.ord.Submit(func() writeResult { return writeResult{flush: ch} }) {
		if err := w.ctx.Err(); err != nil {
			w.err = err
			return err
		}
		w.err = errWriterClosed
		return w.err
	}
	<-ch
	return w.check()
}

// Close seals the container: it compresses the final partial block, waits
// for the pipeline to drain, writes the optional index trailer, and
// finalizes the header (backpatching it in seekable mode; writing header,
// spooled records, and trailer in spool mode). Close does not close the
// underlying writer. After Close, Stats reports the compression totals.
func (w *Writer) Close() error {
	if w.closed {
		return w.closeErr
	}
	w.closed = true
	w.closeErr = w.finalize()
	// A closed Writer only answers Stats: drop the block buffers and the
	// spool so a caller holding on to it does not hold on to them. No encode
	// task can still reach them — finalize returned after the drain goroutine
	// consumed every task's result.
	w.cur, w.rec, w.free, w.spool = nil, nil, nil, bytes.Buffer{}
	if w.err == nil && w.closeErr != nil {
		w.err = w.closeErr
	}
	return w.closeErr
}

func (w *Writer) finalize() error {
	err := w.err
	if err == nil && len(w.cur) > 0 {
		err = w.submit()
	}
	if w.ord != nil {
		w.ord.Finish()
		<-w.drained
		if w.unwatch != nil {
			close(w.unwatch)
		}
		if err == nil {
			err = w.derr // visible: drained closed after the last write
		}
	}
	if err == nil {
		err = w.ctx.Err()
	}
	if err != nil {
		return err
	}
	return w.seal()
}

// seal writes the trailer and the final header once every record is out.
func (w *Writer) seal() error {
	if err := w.ensureHeader(); err != nil {
		return err
	}
	nb := uint32(len(w.offsets))
	w.offsets = append(w.offsets, int64(format.HeaderSize)+w.written)
	var trailer []byte
	if w.opt.Index {
		trailer = format.AppendIndex(nil, w.offsets)
	}
	hb := format.AppendHeader(nil, w.opt.Header(w.rawTotal, nb))
	if w.ws != nil {
		if len(trailer) > 0 {
			if _, err := w.ws.Write(trailer); err != nil {
				return fmt.Errorf("gompresso: writing index trailer: %w", err)
			}
		}
		end := w.wsBase + int64(format.HeaderSize) + w.written + int64(len(trailer))
		if _, err := w.ws.Seek(w.wsBase, io.SeekStart); err != nil {
			return fmt.Errorf("gompresso: sealing header: %w", err)
		}
		if _, err := w.ws.Write(hb); err != nil {
			return fmt.Errorf("gompresso: sealing header: %w", err)
		}
		// An O_APPEND file satisfies io.WriteSeeker and accepts the seek,
		// but the kernel redirects every write to end-of-file — the
		// backpatch lands after the trailer and the container keeps its
		// placeholder header. Detect the ignored seek by position and fail
		// loudly instead of sealing a corrupt file.
		if pos, err := w.ws.Seek(0, io.SeekCurrent); err == nil && pos != w.wsBase+int64(format.HeaderSize) {
			return fmt.Errorf("gompresso: destination ignored header backpatch (append-mode file?)")
		}
		if _, err := w.ws.Seek(end, io.SeekStart); err != nil {
			return fmt.Errorf("gompresso: sealing header: %w", err)
		}
	} else {
		if _, err := w.dst.Write(hb); err != nil {
			return fmt.Errorf("gompresso: writing header: %w", err)
		}
		if w.spool.Len() > 0 {
			if _, err := w.spool.WriteTo(w.dst); err != nil {
				return fmt.Errorf("gompresso: writing blocks: %w", err)
			}
		}
		if len(trailer) > 0 {
			if _, err := w.dst.Write(trailer); err != nil {
				return fmt.Errorf("gompresso: writing index trailer: %w", err)
			}
		}
	}
	w.stats.RawSize = int64(w.rawTotal)
	w.stats.Blocks = int(nb)
	w.stats.CompSize = int64(format.HeaderSize) + w.written + int64(len(trailer))
	w.stats.Seconds = time.Since(w.begin).Seconds()
	if w.stats.CompSize > 0 {
		w.stats.Ratio = float64(w.stats.RawSize) / float64(w.stats.CompSize)
	}
	if w.stats.Seconds > 0 {
		w.stats.Speed = float64(w.stats.RawSize) / w.stats.Seconds
	}
	return nil
}

// Stats reports the compression totals. Valid after a successful Close.
func (w *Writer) Stats() *CompressStats {
	s := w.stats
	return &s
}
