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
// run on the shared pool, at most Workers concurrently, and the calling
// goroutine drives the rest: with 2×Workers blocks out, submitting another
// first takes the oldest finished record and writes it, and Flush and Close
// take what is left. The Writer starts no goroutines of its own — the
// destination is only ever written by the caller — and memory stays at
// O(Workers × BlockSize).
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

	opt   core.Options // normalized compression options
	ctx   context.Context
	begin time.Time

	cur   []byte   // raw block being filled; cap is always opt.BlockSize
	spare [][]byte // raw block buffers whose blocks have been written

	// The encodes of the `out` blocks submitted and not yet written; nil
	// until the first block of a stream with more than one worker completes.
	ord *parallel.Ordered[writeResult]
	out int

	offsets  []int64 // container offset of each emitted record
	written  int64   // compressed bytes emitted after the header
	rawTotal uint64
	stats    CompressStats

	headerDone bool
	err        error // sticky Writer-side error
	closed     bool
	closeErr   error
}

// writeResult is one block's trip through the encoder: the raw buffer it
// came in, and its encoded record or the error that poisons the stream.
type writeResult struct {
	raw []byte
	rec []byte
	bs  core.BlockStats
	err error
}

var errWriterClosed = errors.New("gompresso: writer closed")

// recPool recycles encoded-record buffers across every Writer. It is deliberately not a field of Writer: the runtime's pool
// registry references each sync.Pool it has seen for two collection cycles,
// and a Pool embedded in a Writer would keep the whole closed Writer — spool,
// block buffers and all — reachable that long.
var recPool = sync.Pool{New: func() any { return new([]byte) }}

// NewWriter returns a parallel streaming compressor writing a Gompresso
// container to w with the codec's configuration; see Writer for the
// pipeline and output-mode details. The container's bytes are identical to
// what Codec.Compress would produce for the concatenated input.
func (c *Codec) NewWriter(w io.Writer) *Writer {
	wr := &Writer{dst: w, opt: c.copt, ctx: c.ctx, begin: time.Now()}
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
// sticky: a previous failure, a closed Writer, or a cancelled context.
func (w *Writer) check() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		w.err = errWriterClosed
		return w.err
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
// block buffers (io.Copy picks it automatically, so streaming a file
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
// and readies a buffer for the next, first writing out the oldest block when
// readahead of them are out already.
func (w *Writer) submit() error {
	if len(w.cur) == 0 {
		return nil
	}
	if err := w.ensureHeader(); err != nil {
		return err
	}
	raw := w.cur
	if w.opt.Workers <= 1 {
		// With one worker the caller is that worker: run the task here.
		if err := w.finish(w.encode(raw)); err != nil {
			return err
		}
	} else {
		if w.ord == nil {
			w.ord = parallel.NewOrdered[writeResult](w.opt.Workers, readahead(w.opt.Workers))
		}
		if w.out == readahead(w.opt.Workers) {
			if err := w.takeOldest(); err != nil {
				return err
			}
		}
		w.ord.Submit(func() writeResult { return w.encode(raw) })
		w.out++
	}
	if n := len(w.spare); n > 0 {
		w.cur, w.spare = w.spare[n-1], w.spare[:n-1]
	} else {
		w.cur = make([]byte, 0, w.opt.BlockSize)
	}
	return nil
}

// encode compresses one raw block into a pooled record buffer; it runs on
// the worker pool, or on the caller when that is the one worker.
func (w *Writer) encode(raw []byte) writeResult {
	res := writeResult{raw: raw}
	if res.err = w.ctx.Err(); res.err == nil {
		rp := recPool.Get().(*[]byte)
		res.rec, res.bs, res.err = core.EncodeBlockRecord((*rp)[:0], raw, w.opt)
	}
	return res
}

// takeOldest waits for the oldest block out and finishes it.
func (w *Writer) takeOldest() error {
	res, _ := w.ord.Next()
	w.out--
	return w.finish(res)
}

// finish writes an encoded block's record to the destination — unless the
// stream has failed already — and recycles its buffers.
func (w *Writer) finish(res writeResult) error {
	var err error
	if w.err != nil {
		// Only recycle.
	} else if res.err != nil {
		err = fmt.Errorf("gompresso: block %d: %w", len(w.offsets), res.err)
	} else {
		err = w.emit(res.rec, len(res.raw), res.bs)
	}
	if rec := res.rec; rec != nil {
		recPool.Put(&rec)
	}
	w.spare = append(w.spare, res.raw[:0])
	return err
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
	for w.out > 0 {
		if err := w.takeOldest(); err != nil {
			w.err = err
			return err
		}
	}
	return nil
}

// Close seals the container: it compresses the final partial block, writes
// out every block still in the encoder, writes the optional index trailer, and
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
	// task can still reach them — finalize took every task's result.
	w.cur, w.spare, w.ord, w.spool = nil, nil, nil, bytes.Buffer{}
	if w.err == nil && w.closeErr != nil {
		w.err = w.closeErr
	}
	return w.closeErr
}

func (w *Writer) finalize() error {
	if w.err == nil && len(w.cur) > 0 {
		w.err = w.submit()
	}
	for w.out > 0 {
		if err := w.takeOldest(); w.err == nil {
			w.err = err
		}
	}
	if w.err == nil {
		w.err = w.ctx.Err()
	}
	if w.err != nil {
		return w.err
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
