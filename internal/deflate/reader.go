package deflate

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
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
	segSize      = 256 << 10 // output granule: one sequential run, one checksum fold
	// runSlack is the room a decode route needs past the position it was
	// asked to stop at: the last symbol may start just short of it, and a
	// match copy runs to completion.
	runSlack = maxMatch
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
// Every byte comes out of one primitive, next: "append the next run of
// member output to dst, whose own tail is the history". ReadAll runs it over
// the final, exactly-sized slice; Read and WriteTo run it over one reusable
// buffer that keeps a window of history in front of the run being served.
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

	sum  uint32 // running CRC-32 (gzip) or Adler-32 (zlib)
	mout int64  // member output so far (see hist)

	buf    []byte // Read/WriteTo only: history window, then the run being served
	segOff int    // next unserved byte of buf
	err    error  // sticky; io.EOF after the last byte
	closed bool

	par     *parRun
	lut     *[1 << 16]byte // cell → byte, see resolveCells; nil unless par != nil
	stats   Stats
	collect *collector // seek-index capture; nil unless CollectIndex enabled
}

// Stats counts the resolver's speculation decisions: what became of every
// chunk result it looked at, and which route the output bytes took.
type Stats struct {
	ChunksSpliced  int   // start matched the verified position; resolved in place
	ChunksStale    int   // start already passed by sequential progress
	ChunksFailed   int   // speculative decode failed; region re-decoded sequentially
	ChunksRejected int   // a marker reached before the member's history
	BytesSpliced   int64 // output delivered by spliced chunks
	BytesSeq       int64 // output delivered by the sequential engine
}

// Stats reports the speculation counters so far. Workers: 1 leaves every
// chunk counter at zero.
func (r *Reader) Stats() Stats { return r.stats }

var (
	errClosed = errors.New("deflate: reader closed")
	errNotNew = errors.New("deflate: CollectIndex and ReadAll require an unread Reader")
)

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
		r.lut = new([1 << 16]byte)
		for b := 0; b < 256; b++ {
			r.lut[b] = byte(b)
		}
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

// Decompress expands a whole in-memory stream.
func Decompress(data []byte, form Format, opt Options) ([]byte, error) {
	r, err := NewReaderBytes(nil, data, form, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	out, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	return out, nil
}

// hintRatio is the largest expansion sizeHint believes: sixteen times what
// text compresses by, and a lie costs at most that much zeroed memory.
// DEFLATE itself can reach 1,032:1 — a 6 MB stream may honestly claim 4 GiB —
// so such streams grow into their size instead of reserving it.
const hintRatio = 64

// sizeHint guesses the decompressed size for ReadAll's one allocation: the
// gzip ISIZE trailer when it is within hintRatio of the input, else the
// compressed size, from which next grows geometrically (zlib, raw, highly
// compressible or lying gzip; a multi-member trailer describes only the last
// member and simply undershoots).
func (r *Reader) sizeHint() int {
	n := uint64(len(r.data))
	if r.form == FormatGzip && n >= 4 {
		isize := uint64(binary.LittleEndian.Uint32(r.data[n-4:]))
		if isize <= hintRatio*n && isize <= math.MaxInt-runSlack-1 {
			return int(isize)
		}
	}
	return len(r.data)
}

// ReadAll decodes the whole stream into one slice, sized up front from
// sizeHint so a truthful gzip trailer costs exactly one allocation and no
// copy. Like io.ReadAll it returns what decoded cleanly alongside any error.
// It replaces Read/WriteTo rather than following them: the Reader must be
// unread.
func (r *Reader) ReadAll() ([]byte, error) {
	if !r.unread() {
		return nil, errNotNew
	}
	// One byte beyond the hint lets the engine see the end-of-block symbol
	// that follows the last output byte without asking for more room.
	dst := make([]byte, 0, r.sizeHint()+runSlack+1)
	for r.err == nil {
		dst, r.err = r.next(dst)
	}
	if r.err != io.EOF {
		return dst, r.err
	}
	return dst, nil
}

// unread reports whether no output has been produced or requested yet.
func (r *Reader) unread() bool {
	return !r.closed && r.err == nil && r.members == 1 && r.mout == 0 && r.ms == msBlocks
}

// Members reports how many framing members have been started so far.
func (r *Reader) Members() int { return r.members }

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	for r.segOff == len(r.buf) {
		if r.err != nil {
			return 0, r.err
		}
		r.fill()
	}
	n := copy(p, r.buf[r.segOff:])
	r.segOff += n
	return n, nil
}

// WriteTo implements io.WriterTo, streaming whole decoded runs to w.
func (r *Reader) WriteTo(w io.Writer) (int64, error) {
	var total int64
	for {
		if r.segOff < len(r.buf) {
			n, err := w.Write(r.buf[r.segOff:])
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
	r.buf, r.segOff = nil, 0
	if r.err == nil {
		r.err = errClosed
	}
	return nil
}

// fill decodes the next run into the streaming buffer. All of buf has been
// served by now and only its history window still matters, so that slides
// to the front first: buf is never more than a window and one run. A run
// that comes with an error is served first; Read and WriteTo surface r.err
// after it.
func (r *Reader) fill() {
	if r.buf == nil {
		r.buf = make([]byte, 0, winSize+segSize+runSlack)
	}
	if n := len(r.buf); n > winSize {
		r.buf = r.buf[:copy(r.buf, r.buf[n-winSize:])]
	}
	r.segOff = len(r.buf)
	r.buf, r.err = r.next(r.buf)
}

// next appends the next run of decompressed output to dst — a spliced
// speculative chunk or at most one sequential segment — advancing the
// framing state machine until there is output or a terminal condition
// (io.EOF after the last member). The caller passes back what next returned
// last: the final r.hist() bytes of dst must be the member's most recent
// output, which is all the history either decode route reads. Output that
// precedes an error is still appended and returned with it.
func (r *Reader) next(dst []byte) ([]byte, error) {
	for {
		if err := r.ctx.Err(); err != nil {
			return dst, err
		}
		switch r.ms {
		case msDone:
			return dst, io.EOF
		case msHeader:
			if err := r.beginMember(); err != nil {
				return dst, err
			}
		case msFooter:
			if err := r.checkFooter(); err != nil {
				return dst, err
			}
		default: // msBlocks
			n := len(dst)
			var err error
			if dst, err = r.decodeSome(dst); err != nil || len(dst) > n {
				return dst, err
			}
		}
	}
}

// beginMember parses the framing header at r.bytePos and resets the
// per-member state (engine position, history length, checksum).
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
	r.mout = 0
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
		if isize != uint32(r.mout) {
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

// decodeSome appends the next run of output within a member: a spliced
// speculative chunk when the next pending result starts exactly at the
// verified stream position, otherwise a sequentially decoded segment.
func (r *Reader) decodeSome(dst []byte) ([]byte, error) {
	hist := r.hist()
	c, err := r.spliceable(hist)
	if err != nil {
		return dst, err
	}
	if c != nil {
		dst = r.splice(dst, c, hist)
		putCells(c.cells)
	} else if dst, err = r.decodeSeq(dst, hist); err != nil {
		return dst, err
	}
	// Checkpoint capture: with the engine parked at a block boundary
	// mid-member, dst's tail is exactly the history visible at r.eng.bit —
	// both routes leave this invariant.
	if r.collect != nil && r.ms == msBlocks && r.eng.st == stBlock {
		r.collect.maybeAdd(r.eng.bit, dst[len(dst)-r.hist():])
	}
	return dst, nil
}

// hist is how much of the member's output back-references can still reach:
// that many bytes must end the dst handed to next.
func (r *Reader) hist() int { return int(min(r.mout, winSize)) }

// spliceable takes the pending chunk result off the queue if it can be
// spliced at the verified position and discards results that never can; a
// nil chunk sends the caller to the sequential engine. It is the one place
// chunk results are judged, so it keeps their Stats.
func (r *Reader) spliceable(hist int) (*chunkResult, error) {
	if r.par == nil || r.eng.st != stBlock {
		return nil, nil
	}
	for {
		c := r.par.peek()
		switch {
		case c == nil || c.start > r.eng.bit:
			return nil, nil
		case c.start < r.eng.bit:
			r.stats.ChunksStale++ // superseded by sequential progress
			r.par.drop()
			continue
		case c.err != nil && !isDecodeErr(c.err):
			return nil, c.err // context cancellation
		case c.err != nil:
			// The chunk start is verified, so the failure is real — but
			// re-derive it sequentially for the authoritative offset and
			// the exact served prefix.
			r.stats.ChunksFailed++
		case -c.minSrc > hist:
			// A marker reaches before the member's history: the stream is
			// corrupt, and the sequential engine will say where.
			r.stats.ChunksRejected++
		default:
			r.stats.ChunksSpliced++
			return r.par.take(), nil
		}
		r.par.drop()
		return nil, nil
	}
}

// splice resolves a verified speculative chunk straight into dst's spare
// capacity and advances the engine past it. The checksum is folded a
// segment behind the resolve, while those bytes are still in cache.
func (r *Reader) splice(dst []byte, c *chunkResult, hist int) []byte {
	n := len(c.cells)
	dst = grow(dst, n)
	at := len(dst)
	copy(r.lut[markerBit+winSize-hist:], dst[at-hist:])
	dst = dst[:at+n]
	for off := 0; off < n; off += segSize {
		end := min(off+segSize, n)
		resolveCells(dst[at+off:at+end], c.cells[off:end], r.lut)
		r.fold(dst[at+off : at+end])
	}
	r.stats.BytesSpliced += int64(n)
	r.eng.bit = c.end
	r.eng.st = stBlock
	if c.sawEOS {
		r.eng.st = stEOS
		r.ms = msFooter
	}
	return dst
}

// decodeSeq decodes sequentially onto the end of dst until a segment is
// done, dst's capacity runs out, the member ends, an error occurs, or (in
// parallel mode) the stream position reaches the next pending chunk. The
// engine works on dst[len-hist:], so the history is read where it lies.
func (r *Reader) decodeSeq(dst []byte, hist int) ([]byte, error) {
	if cap(dst)-len(dst) <= runSlack {
		dst = grow(dst, segSize)
	}
	base := len(dst) - hist
	win := dst[base:cap(dst)]
	pos, limit := hist, min(hist+segSize, len(win)-runSlack)
	var err error
	for {
		var ev event
		if pos, ev, err = r.eng.decodeInto(win, pos, limit); err != nil || ev == evSpace {
			break
		}
		if ev == evEOS {
			r.ms = msFooter
			break
		}
		// evBoundary: stop here if the next speculative chunk can splice,
		// or if index capture owes a checkpoint — ending the run lets
		// decodeSome snapshot the window at this boundary, giving
		// checkpoints at the requested spacing rather than segment
		// (256 KiB) granularity.
		if r.collect != nil && r.collect.due(pos-hist) {
			break
		}
		if r.par != nil {
			if c := r.par.peek(); c != nil && c.start == r.eng.bit && c.err == nil {
				break
			}
		}
	}
	r.fold(win[hist:pos])
	r.stats.BytesSeq += int64(pos - hist)
	return dst[:base+pos], err
}

// fold accounts freshly produced member output: running checksum, member
// size, and the index collector's stream offset.
func (r *Reader) fold(p []byte) {
	switch r.form {
	case FormatGzip:
		r.sum = crc32.Update(r.sum, crc32.IEEETable, p)
	case FormatZlib:
		r.sum = adlerUpdate(r.sum, p)
	}
	r.mout += int64(len(p))
	if r.collect != nil {
		r.collect.total += int64(len(p))
	}
}

// grow returns dst with room for n more bytes plus the decode routes'
// overshoot slack, moving it to a larger array when it must: double what is
// held (ReadAll past a wrong size hint), or a quarter over the need (the
// streaming buffer, which holds little and meets chunks of uneven size).
func grow(dst []byte, n int) []byte {
	need := len(dst) + n + runSlack
	if need <= cap(dst) {
		return dst
	}
	bigger := make([]byte, len(dst), max(2*len(dst), need+need/4))
	copy(bigger, dst)
	return bigger
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
