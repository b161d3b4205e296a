package deflate

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"runtime"
	"sync"

	"gompresso/internal/parallel"
)

// DefaultChunkSize is the compressed-byte granule of speculative parallel
// decoding. Bigger chunks amortize the scanner's probe cost; smaller ones
// expose more parallelism on short streams.
const DefaultChunkSize = 512 << 10

const (
	minChunkSize = 4 << 10
	segSize      = 256 << 10 // sequential-path output segment granularity
)

// Options tunes the decoder.
type Options struct {
	// Workers is the number of chunks decoded concurrently. 0 selects
	// GOMAXPROCS; 1 selects the purely sequential path.
	Workers int
	// Readahead bounds how many speculative chunk results may be buffered
	// ahead of the consumer. 0 selects 2×Workers.
	Readahead int
	// ChunkSize is the compressed bytes per speculative chunk (0 selects
	// DefaultChunkSize; the floor is 4 KiB).
	ChunkSize int
}

func (o Options) normalize() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.Readahead <= 0 {
		o.Readahead = 2 * o.Workers
	}
	if o.Readahead < o.Workers {
		o.Readahead = o.Workers
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	if o.ChunkSize < minChunkSize {
		o.ChunkSize = minChunkSize
	}
	return o
}

// memberState is the framing-level position within the stream.
type memberState uint8

const (
	msHeader memberState = iota // at a member header (byte-aligned)
	msBlocks                    // inside a member's deflate stream
	msFooter                    // member's final block done; footer next
	msDone                      // stream fully decoded
)

// Reader streams the decompressed contents of an in-memory DEFLATE, gzip,
// or zlib stream. With Workers > 1 it runs the two-pass parallel pipeline:
// a scanner goroutine probes for block-boundary candidates and submits
// speculative chunk decodes to the shared worker pool through
// parallel.Ordered; the Reader's serving goroutine is the in-order
// resolution stage, splicing each verified chunk (patching its window
// markers against the live 32 KiB history) or decoding sequentially across
// mispredicted gaps, member boundaries, and error regions. Output bytes,
// checksums, and error offsets are identical at every worker count.
//
// A Reader is not safe for concurrent use.
type Reader struct {
	data []byte
	form Format
	opt  Options
	ctx  context.Context

	eng     engine
	ms      memberState
	bytePos int64 // next member's byte offset (ms == msHeader)
	members int

	win    [winSize]byte // last ≤32768 bytes of member output
	winLen int
	sum    uint32 // running CRC-32 (gzip) or Adler-32 (zlib)
	msize  uint32 // member output size mod 2^32

	sbuf   []byte // sequential decode buffer: window + segment + slack
	segbuf []byte // resolved speculative chunk output

	seg     []byte // current segment being served
	segOff  int
	err     error // sticky; io.EOF after the last byte
	pendErr error // error to surface after the current segment drains
	closed  bool

	par     *parRun
	collect *collector // seek-index capture; nil unless CollectIndex enabled
}

var errClosed = errors.New("deflate: reader closed")

// NewReaderBytes returns a Reader over an in-memory compressed stream.
// The framing header of the first member is parsed eagerly, so garbage
// input fails here rather than at the first Read.
func NewReaderBytes(ctx context.Context, data []byte, form Format, opt Options) (*Reader, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	opt = opt.normalize()
	r := &Reader{data: data, form: form, opt: opt, ctx: ctx, ms: msHeader}
	if err := r.beginMember(); err != nil {
		r.eng.release()
		return nil, err
	}
	if useParallel(len(data), opt, parallel.Workers(opt.Workers, opt.Workers)) {
		r.par = startScan(ctx, data, r.eng.bit, opt)
	}
	return r, nil
}

// useParallel reports whether the speculative two-pass pipeline is worth
// starting: the caller asked for more than one worker, the shared pool can
// actually run more than one share at once, and the input is long enough
// to split. On a GOMAXPROCS=1 box Workers>1 used to start the scanner
// anyway and pay scan+marker overhead with zero concurrency (PR 5's
// Gzip_Bit_W2 row: 0.138 GB/s vs 0.213 sequential); now effective parallelism
// of 1 degrades to the sequential engine.
func useParallel(dataLen int, opt Options, poolWorkers int) bool {
	return opt.Workers > 1 && poolWorkers > 1 && dataLen >= opt.ChunkSize+minChunkSize
}

// NewReader reads all of src into memory and returns a Reader over it. The
// two-pass parallel decode needs random access to the compressed bytes, so
// streaming sources are buffered whole; bounded-memory foreign streaming is
// future work (see DESIGN.md).
func NewReader(ctx context.Context, src io.Reader, form Format, opt Options) (*Reader, error) {
	data, err := io.ReadAll(src)
	if err != nil {
		return nil, err
	}
	return NewReaderBytes(ctx, data, form, opt)
}

// Decompress expands a whole in-memory stream.
func Decompress(data []byte, form Format, opt Options) ([]byte, error) {
	r, err := NewReaderBytes(nil, data, form, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Members reports how many framing members have been started so far.
func (r *Reader) Members() int { return r.members }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for r.segOff == len(r.seg) {
		if r.err != nil {
			return 0, r.err
		}
		r.fill()
	}
	n := copy(p, r.seg[r.segOff:])
	r.segOff += n
	return n, nil
}

// WriteTo implements io.WriterTo, streaming whole decoded segments to w.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		if r.segOff < len(r.seg) {
			n, err := w.Write(r.seg[r.segOff:])
			r.segOff += n
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
		r.fill()
	}
}

// Close stops the scanner, waits for in-flight chunk decodes, and returns
// pooled resources. It does not fail; closing mid-stream is the supported
// way to abandon a parallel decode without leaking goroutines.
func (r *Reader) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	if r.par != nil {
		r.par.shutdown()
		r.par = nil
	}
	r.eng.release()
	r.seg = nil
	if r.err == nil {
		r.err = errClosed
	}
	return nil
}

func (r *Reader) fill() {
	seg, err := r.nextSegment()
	r.seg, r.segOff = seg, 0
	if err != nil {
		r.err = err
		return
	}
	// Checkpoint capture: after a segment lands with the engine parked at
	// a block boundary mid-member, r.win holds exactly the history visible
	// at r.eng.bit — both the spliced-parallel and sequential paths leave
	// this invariant.
	if r.collect != nil && r.pendErr == nil && r.ms == msBlocks && r.eng.st == stBlock {
		r.collect.maybeAdd(r.eng.bit, r.win[:r.winLen])
	}
}

// nextSegment advances the framing state machine until it produces output
// bytes or a terminal condition.
func (r *Reader) nextSegment() ([]byte, error) {
	if r.pendErr != nil {
		return nil, r.pendErr
	}
	for {
		if err := r.ctx.Err(); err != nil {
			return nil, err
		}
		switch r.ms {
		case msDone:
			return nil, io.EOF
		case msHeader:
			if err := r.beginMember(); err != nil {
				return nil, err
			}
		case msFooter:
			if err := r.checkFooter(); err != nil {
				return nil, err
			}
		default: // msBlocks
			seg, err := r.decodeSome()
			if err != nil || len(seg) > 0 {
				return seg, err
			}
		}
	}
}

// beginMember parses the framing header at r.bytePos and resets the
// per-member state (engine position, history window, checksum).
func (r *Reader) beginMember() error {
	var start int64
	var err error
	switch r.form {
	case FormatGzip:
		start, err = parseGzipHeader(r.data, r.bytePos)
	case FormatZlib:
		start, err = parseZlibHeader(r.data)
	default:
		start = r.bytePos
	}
	if err != nil {
		return err
	}
	r.eng.reset(r.data, start*8)
	r.ms = msBlocks
	r.winLen = 0
	r.msize = 0
	r.sum = 0
	if r.form == FormatZlib {
		r.sum = 1
	}
	r.members++
	if r.collect != nil {
		// Member starts are always checkpointed (windowless — no history
		// crosses a framing boundary), so a chunk never spans members.
		r.collect.add(Checkpoint{Bit: r.eng.bit, Out: r.collect.total})
	}
	return nil
}

// checkFooter verifies the member footer against the running checksum and
// output size, then advances to the next member (gzip multistream) or ends
// the stream.
func (r *Reader) checkFooter() error {
	off := (r.eng.bit + 7) >> 3
	n := int64(len(r.data))
	switch r.form {
	case FormatGzip:
		if off+8 > n {
			return truncatedAt(n, "gzip footer past end of input")
		}
		crc := binary.LittleEndian.Uint32(r.data[off:])
		isize := binary.LittleEndian.Uint32(r.data[off+4:])
		if crc != r.sum {
			return &Error{Off: off, Kind: ErrChecksum, Msg: "gzip CRC-32 mismatch"}
		}
		if isize != r.msize {
			return &Error{Off: off + 4, Kind: ErrChecksum, Msg: "gzip ISIZE mismatch"}
		}
		off += 8
		if off == n {
			r.ms = msDone
		} else {
			// Multistream, as compress/gzip: anything after a member must
			// be another member.
			r.ms = msHeader
			r.bytePos = off
		}
	case FormatZlib:
		if off+4 > n {
			return truncatedAt(n, "zlib footer past end of input")
		}
		adler := binary.BigEndian.Uint32(r.data[off:])
		if adler != r.sum {
			return &Error{Off: off, Kind: ErrChecksum, Msg: "zlib Adler-32 mismatch"}
		}
		r.ms = msDone // trailing bytes ignored, as compress/zlib
	default:
		r.ms = msDone // raw deflate: trailing bytes ignored, as compress/flate
	}
	return nil
}

// decodeSome produces the next run of output bytes within a member: a
// spliced speculative chunk when the next pending result starts exactly at
// the verified stream position, otherwise a sequentially decoded segment.
func (r *Reader) decodeSome() ([]byte, error) {
	if r.par != nil && r.eng.st == stBlock {
		for {
			c := r.par.peek()
			if c == nil || c.start > r.eng.bit {
				break
			}
			if c.start < r.eng.bit {
				r.par.drop() // stale: superseded by sequential progress
				continue
			}
			if c.err != nil {
				if !isDecodeErr(c.err) {
					return nil, c.err // context cancellation
				}
				// The chunk start is verified, so the failure is real —
				// but re-derive it sequentially for the authoritative
				// offset and the exact served prefix.
				r.par.drop()
				break
			}
			c = r.par.take()
			seg, ok := r.splice(c)
			putCells(c.cells)
			if ok {
				return seg, nil
			}
			break // marker out of range: the sequential engine will explain
		}
	}
	return r.decodeSeq()
}

// splice applies a verified speculative chunk: resolve its cells against
// the live window, advance the engine past the chunk, and account the
// output. ok is false when a marker reaches beyond the member's actual
// history (corrupt stream; caller re-decodes sequentially).
func (r *Reader) splice(c *chunkResult) ([]byte, bool) {
	n := len(c.cells)
	if cap(r.segbuf) < n {
		r.segbuf = make([]byte, n)
	}
	out := r.segbuf[:n]
	if !resolveCells(out, c.cells, r.win[:r.winLen]) {
		return nil, false
	}
	r.eng.bit = c.end
	if c.sawEOS {
		r.eng.st = stEOS
		r.ms = msFooter
	} else {
		r.eng.st = stBlock
	}
	r.account(out)
	return out, true
}

// decodeSeq decodes sequentially into the window-prefixed segment buffer
// until the segment fills, the member ends, an error occurs, or (in
// parallel mode) the stream position reaches the next pending chunk.
func (r *Reader) decodeSeq() ([]byte, error) {
	if r.sbuf == nil {
		r.sbuf = make([]byte, winSize+segSize+maxMatch+8)
	}
	hist := r.winLen
	copy(r.sbuf, r.win[:hist])
	start, pos := hist, hist
	limit := winSize + segSize
	for {
		npos, ev, err := r.eng.decodeInto(r.sbuf, pos, limit)
		pos = npos
		if err != nil {
			seg := r.emit(start, pos)
			if len(seg) > 0 {
				r.pendErr = err // serve the valid prefix first
				return seg, nil
			}
			return nil, err
		}
		if ev == evEOS {
			r.ms = msFooter
			break
		}
		if ev == evSpace {
			break
		}
		// evBoundary: stop here if the next speculative chunk can splice,
		// or if index capture owes a checkpoint — ending the segment lets
		// fill() snapshot the window at this boundary, giving checkpoints
		// at the requested spacing rather than segment (256 KiB)
		// granularity.
		if r.collect != nil && r.collect.due(pos-start) {
			break
		}
		if r.par != nil {
			if c := r.par.peek(); c != nil && c.start == r.eng.bit && c.err == nil {
				break
			}
		}
	}
	return r.emit(start, pos), nil
}

func (r *Reader) emit(start, pos int) []byte {
	seg := r.sbuf[start:pos]
	r.account(seg)
	return seg
}

// account folds freshly produced member output into the running checksum,
// size, and history window.
func (r *Reader) account(p []byte) {
	if len(p) == 0 {
		return
	}
	if r.collect != nil {
		r.collect.total += int64(len(p))
	}
	switch r.form {
	case FormatGzip:
		r.sum = crc32.Update(r.sum, crc32.IEEETable, p)
	case FormatZlib:
		r.sum = adlerUpdate(r.sum, p)
	}
	r.msize += uint32(len(p))
	if len(p) >= winSize {
		copy(r.win[:], p[len(p)-winSize:])
		r.winLen = winSize
		return
	}
	keep := r.winLen
	if keep+len(p) > winSize {
		keep = winSize - len(p)
		copy(r.win[:], r.win[r.winLen-keep:r.winLen])
	}
	copy(r.win[keep:], p)
	r.winLen = keep + len(p)
}

func isDecodeErr(err error) bool {
	var e *Error
	return errors.As(err, &e)
}

// parRun is the parallel pipeline's lifecycle: one scanner goroutine
// probing candidates and submitting speculative chunk decodes, an ordered
// queue delivering results to the resolver, and a one-result lookahead the
// resolver uses to match chunk starts against the verified position.
type parRun struct {
	ord     *parallel.Ordered[chunkResult]
	stop    chan struct{}
	done    chan struct{}
	once    sync.Once
	cur     *chunkResult
	drained bool
}

func startScan(ctx context.Context, data []byte, firstBit int64, opt Options) *parRun {
	p := &parRun{
		ord:  parallel.NewOrdered[chunkResult](opt.Workers, opt.Readahead),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	go p.scan(ctx, data, firstBit, opt.ChunkSize)
	return p
}

// scan probes for block-start candidates at chunk granularity and submits
// the chunk between consecutive candidates for speculative decode. A
// barren span (no verifiable candidate — e.g. a run of fixed-Huffman
// blocks, which are never primary anchors) just grows the current chunk:
// the probe keeps advancing span by span so parallelism resumes at the
// next anchor-bearing region, and the total scan work stays O(input) for
// the whole stream. Only end of input ends the scanner, with a final
// chunk that decodes to the end of the stream.
func (p *parRun) scan(ctx context.Context, data []byte, firstBit int64, chunkBytes int) {
	defer close(p.done)
	defer p.ord.Finish()
	t := getTables()
	defer putTables(t)
	prev := firstBit
	for {
		cand := int64(-1)
		for from := int(prev>>3) + chunkBytes; cand < 0 && from < len(data); from += 4 * chunkBytes {
			select {
			case <-p.stop:
				return
			case <-ctx.Done():
				p.ord.Submit(func() chunkResult { return chunkResult{start: prev, err: ctx.Err()} })
				return
			default:
			}
			cand = findCandidate(data, from, 4*chunkBytes, t)
		}
		pv, cd := prev, cand
		if !p.ord.Submit(func() chunkResult { return decodeChunk(data, pv, cd) }) {
			return
		}
		if cand < 0 {
			return
		}
		prev = cand
	}
}

// peek returns the next undelivered chunk result, pulling from the ordered
// queue as needed; nil once the queue is drained.
func (p *parRun) peek() *chunkResult {
	if p.cur == nil && !p.drained {
		c, ok := p.ord.Next()
		if !ok {
			p.drained = true
			return nil
		}
		p.cur = &c
	}
	return p.cur
}

// drop discards the pending result and recycles its cells.
func (p *parRun) drop() {
	if p.cur != nil {
		putCells(p.cur.cells)
		p.cur = nil
	}
}

// take hands ownership of the pending result (cells included) to the
// caller.
func (p *parRun) take() *chunkResult {
	c := p.cur
	p.cur = nil
	return c
}

// shutdown stops the scanner, drains and recycles every outstanding
// result, and waits for in-flight chunk decodes. Idempotent.
func (p *parRun) shutdown() {
	p.once.Do(func() { close(p.stop) })
	p.ord.Stop()
	<-p.done
	p.drop()
	for !p.drained {
		c, ok := p.ord.Next()
		if !ok {
			p.drained = true
			break
		}
		putCells(c.cells)
	}
	p.ord.Wait()
}
