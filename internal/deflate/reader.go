package deflate

import (
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"sync/atomic"

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
	// What the two things done to a speculative chunk cost, in byte-mode
	// decodes of the same compressed bytes: a speculator's cell decode, with
	// the probe for its start and two decoders sharing a cache, and the
	// serving goroutine's resolve with the checksum. Fitted, not derived:
	// EXPERIMENTS.md "Foreign gzip: hybrid schedule (PR 22)" has the sweep.
	cellCost, resolveCost = 1.7, 0.3
)

// Options tunes the decoder.
type Options struct {
	// Workers is the number of decode goroutines including the caller's,
	// which decodes in byte mode while the other Workers−1 decode speculative
	// chunks ahead of it. 0 selects GOMAXPROCS, which is also the most that
	// are used; 1 selects the purely sequential path.
	Workers int
	// ChunkSize is the compressed bytes per speculative chunk (0 selects
	// DefaultChunkSize; the floor is 4 KiB).
	ChunkSize int
}

func (o Options) normalize() Options {
	o.Workers = parallel.Workers(math.MaxInt, o.Workers) // at most the pool's; 0: all of them
	if o.ChunkSize <= 0 {
		o.ChunkSize = DefaultChunkSize
	}
	o.ChunkSize = max(o.ChunkSize, minChunkSize)
	return o
}

// span is how many compressed bytes the serving goroutine decodes in byte
// mode between two speculative chunks so that it reaches each chunk's start as
// that chunk's decode finishes: per chunk the Workers−1 speculators need
// cellCost/(Workers−1) and the serving goroutine span + resolveCost. From
// seven workers on it is zero and chunks follow each other back to back.
func (o Options) span() int {
	return int(float64(o.ChunkSize) * max(0, cellCost/float64(o.Workers-1)-resolveCost))
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
// or zlib stream. With Workers > 1 it runs the hybrid schedule: the Reader's
// serving goroutine runs the sequential engine in byte mode over every span
// of the stream whose 32 KiB window it holds, while a scanner goroutine
// probes for a block-boundary candidate one span further on and submits the
// chunk that starts there to the shared worker pool through parallel.Ordered
// for a speculative decode into cells. When the engine arrives at a chunk's
// start the serving goroutine splices the chunk (patching its window markers
// against the live history) and decodes on from its end; a candidate the
// engine steps over, a chunk that failed and the stream's tail cost nothing
// but the sequential decode they get anyway. Output bytes, checksums, and
// error offsets are identical at every worker count.
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
	stats   Stats
	collect *collector // seek-index capture; nil unless CollectIndex enabled
}

// Stats counts the serving goroutine's speculation decisions: what became of
// every chunk the scanner announced to it, and which route the output bytes
// took.
type Stats struct {
	ChunksSpliced  int   // start matched the verified position; resolved in place
	ChunksStale    int   // start stepped over by sequential progress
	ChunksFailed   int   // speculative decode failed; region re-decoded sequentially
	ChunksRejected int   // a marker reached before the member's history
	ChunksWaited   int   // reached while still decoding: the serving goroutine idled (span too short)
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
	r := &Reader{data: data, form: form, ctx: ctx, ms: msHeader}
	if err := r.beginMember(); err != nil {
		r.eng.release()
		return nil, err
	}
	if useParallel(len(data), opt) {
		r.par = startScan(ctx, data, r.eng.bit, opt)
	}
	return r, nil
}

// useParallel reports whether the scanner is worth starting: there is more
// than one worker — normalize counts only those the shared pool can run at
// once, so on a GOMAXPROCS=1 box every stream takes the sequential engine
// rather than pay scan and marker overhead with zero concurrency — and the
// input holds a span and a chunk.
func useParallel(dataLen int, opt Options) bool {
	return opt.Workers > 1 && dataLen >= opt.span()+opt.ChunkSize
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
// speculative chunk when the next announced one starts exactly at the
// verified stream position, otherwise a sequentially decoded segment.
func (r *Reader) decodeSome(dst []byte) ([]byte, error) {
	hist := r.hist()
	if c, ok := r.spliceable(hist); ok {
		dst = r.splice(dst, c, hist)
	} else {
		var err error
		if dst, err = r.decodeSeq(dst, hist); err != nil {
			return dst, err
		}
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

// due reports whether the engine stands at the start of the next chunk the
// scanner has announced. It blocks only where the scanner has yet to say
// whether a chunk starts at this very position, which keeps the schedule a
// function of the stream and not of who ran first; a chunk the engine steps
// over all the same started at no block boundary — the probe makes that
// rare — and is stale.
func (r *Reader) due() bool {
	for p := r.par; p != nil && r.eng.st == stBlock; {
		if p.head == nil {
			probed := p.probed.Load() // before the poll: starts below it are all announced
			select {
			case p.head = <-p.starts: // nil once closed: no more chunks
			default:
				if probed > r.eng.bit {
					return false
				}
				p.head = <-p.starts
			}
		}
		if p.head == nil || p.head.start >= r.eng.bit {
			return p.head != nil && p.head.start == r.eng.bit
		}
		c, _ := p.take()
		putCells(c.cells)
		r.stats.ChunksStale++
	}
	return false
}

// spliceable blocks for the result of the chunk that is due, if one is, and
// returns it if it can be spliced; !ok sends the caller to the sequential
// engine. It is the one place chunk results are judged, so it keeps their
// Stats.
func (r *Reader) spliceable(hist int) (c chunkResult, ok bool) {
	if !r.due() {
		return c, false
	}
	c, waited := r.par.take()
	if waited {
		r.stats.ChunksWaited++
	}
	switch {
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
		return c, true
	}
	putCells(c.cells)
	return c, false
}

// splice resolves a verified speculative chunk straight into dst's spare
// capacity, advances the engine past it and sends its cells back to the
// speculators. The checksum is folded a segment behind the resolve, while
// those bytes are still in cache.
func (r *Reader) splice(dst []byte, c chunkResult, hist int) []byte {
	n := len(c.cells)
	dst = grow(dst, n)
	at := len(dst)
	lut := &r.par.lut
	copy(lut[markerBit+winSize-hist:], dst[at-hist:])
	dst = dst[:at+n]
	for off := 0; off < n; off += segSize {
		end := min(off+segSize, n)
		resolveCells(dst[at+off:at+end], c.cells[off:end], lut)
		r.fold(dst[at+off : at+end])
	}
	r.stats.BytesSpliced += int64(n)
	r.eng.bit = c.end
	r.eng.st = stBlock
	if c.sawEOS {
		r.eng.st = stEOS
		r.ms = msFooter
	}
	select {
	case r.par.free <- c.cells[:0]:
	default:
		putCells(c.cells)
	}
	return dst
}

// decodeSeq decodes sequentially onto the end of dst until a segment is
// done, dst's capacity runs out, the member ends, an error occurs, or (in
// parallel mode) the stream position reaches the next announced chunk. The
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
		// evBoundary: stop here if the next speculative chunk starts here, or
		// if index capture owes a checkpoint — ending the run lets decodeSome
		// snapshot the window at this boundary, giving checkpoints at the
		// requested spacing rather than segment (256 KiB) granularity.
		if r.collect != nil && r.collect.due(pos-hist) {
			break
		}
		if r.due() {
			break
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

// parRun is the speculative side's lifecycle: one scanner goroutine probing
// candidates and submitting chunk decodes, and an ordered queue delivering
// their results. Ordered.Next blocks until the queue's head has finished
// decoding, which the serving goroutine — a decoder itself — must not do just
// to learn where that chunk starts: the scanner announces each start on starts
// before it submits, the engine polls that at block boundaries (due), and only
// once it stands at an announced start does it block for the result
// (spliceable).
type parRun struct {
	ord    *parallel.Ordered[chunkResult]
	starts chan *announced
	probed atomic.Int64  // every chunk that starts below this bit is on starts
	head   *announced    // received from starts, result not yet taken
	free   chan []uint16 // spliced chunks' cell buffers, for the next decodes
	lut    [1 << 16]byte // cell → byte, see resolveCells
	cancel context.CancelFunc
}

// announced is a submitted chunk: where it starts, and whether its decode
// has finished.
type announced struct {
	start int64
	done  atomic.Bool
}

func startScan(ctx context.Context, data []byte, firstBit int64, opt Options) *parRun {
	ctx, cancel := context.WithCancel(ctx)
	// At most two speculative chunks per speculator are ahead of the serving
	// goroutine, being decoded or waiting to be spliced: one running, one ready.
	readahead := 2 * (opt.Workers - 1)
	p := &parRun{
		ord: parallel.NewOrdered[chunkResult](opt.Workers-1, readahead),
		// Room for every chunk Submit admits, so announcing never blocks the
		// scanner before Submit's own back-pressure does; and for their cell
		// buffers with the one being spliced.
		starts: make(chan *announced, readahead),
		free:   make(chan []uint16, readahead+1),
		cancel: cancel,
	}
	for b := range 256 {
		p.lut[b] = byte(b)
	}
	p.probed.Store(firstBit + 8*int64(opt.span()))
	// Close hands the buffers back to the pool on this goroutine, and the
	// first of them lands where only this goroutine's processor finds it.
	p.free <- getCells(opt.ChunkSize)
	go p.scan(ctx, data, opt)
	return p
}

// scan probes for a block-start candidate one span past the stream's first
// block, submits the chunk from there to the first block boundary ChunkSize
// further on, probes again one span past that, and so on: the spans between
// are the serving goroutine's. A barren stretch (no verifiable candidate —
// e.g. a run of fixed-Huffman blocks, which are never primary anchors) just
// lengthens a span: the probe keeps advancing so speculation resumes at the
// next anchor-bearing region, and the total scan work stays O(input). End of
// input ends the scanner; the stream's tail is a span like any other.
func (p *parRun) scan(ctx context.Context, data []byte, opt Options) {
	defer p.ord.Finish()
	defer close(p.starts)
	t := getTables()
	defer putTables(t)
	span, chunk := opt.span(), opt.ChunkSize
	for from := int(p.probed.Load() >> 3); ; {
		cand := int64(-1)
		for ; cand < 0 && from < len(data) && ctx.Err() == nil; from += 4 * chunk {
			p.probed.Store(8 * int64(from))
			cand = findCandidate(data, from, 4*chunk, t)
		}
		if cand < 0 {
			return
		}
		a := &announced{start: cand}
		select {
		case p.starts <- a:
		case <-ctx.Done():
			return // next reports it, unless this is shutdown
		}
		from = int(cand>>3) + chunk + span
		p.probed.Store(8 * int64(from))
		if !p.ord.Submit(func() chunkResult {
			defer a.done.Store(true)
			var cells []uint16
			select {
			case cells = <-p.free:
			default:
				cells = getCells(chunk)
			}
			return decodeChunk(data, cand, cand+8*int64(chunk), cells)
		}) {
			return
		}
	}
}

// take blocks for the announced chunk's result, whose cells the caller now
// owns; waited reports that its decode had not finished.
func (p *parRun) take() (c chunkResult, waited bool) {
	waited = !p.head.done.Load()
	p.head = nil
	c, _ = p.ord.Next()
	return c, waited
}

// shutdown stops the scanner, recycles every outstanding result — the queue
// ends when the scanner has exited — and waits for in-flight chunk decodes.
func (p *parRun) shutdown() {
	p.cancel()
	p.ord.Stop()
	for c, ok := p.ord.Next(); ok; c, ok = p.ord.Next() {
		putCells(c.cells)
	}
	p.ord.Wait()
	for len(p.free) > 0 {
		putCells(<-p.free)
	}
}
