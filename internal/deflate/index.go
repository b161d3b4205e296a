package deflate

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Seek-index support: rapidgzip-style random access into foreign streams.
// A full decode (sequential or speculative-parallel) can record checkpoints
// — (compressed bit offset, decompressed offset, 32 KiB window) triples at
// block boundaries — and the resulting Index later re-seeds an engine at
// any checkpoint to decode just that chunk, no markers needed since the
// history is known. Member starts are always checkpointed, so a chunk
// never crosses a framing boundary and chunk decode never touches headers
// or footers.

// DefaultCheckpointSpacing is the decompressed-byte gap between
// checkpoints when the caller does not choose one. Each checkpoint costs
// up to 32 KiB of window in memory (compressed on disk), so 1 MiB spacing
// bounds index overhead near 3% of the decompressed size while keeping
// random access to ~1 MiB of decode work per chunk.
const DefaultCheckpointSpacing = 1 << 20

// Checkpoint pins one resumable position in a compressed stream.
type Checkpoint struct {
	// Bit is the absolute bit offset of a block header in the compressed
	// stream (for a member-start checkpoint: of the member's first block,
	// just past the framing header).
	Bit int64
	// Out is the decompressed stream offset this checkpoint resumes at,
	// cumulative across members.
	Out int64
	// Window is the tail (≤32768 bytes) of the current member's output
	// preceding Out — the history back-references may reach. Empty at
	// member starts.
	Window []byte
}

// Index is a seek index over one compressed stream: everything needed to
// decode an arbitrary decompressed range by chunk. Checkpoint Outs are
// strictly increasing and start at 0; the chunk i spans
// [Checkpoints[i].Out, Checkpoints[i+1].Out) (the last chunk ends at
// RawSize).
type Index struct {
	Form        Format
	SrcSize     int64 // compressed input size the index was built from
	RawSize     int64 // total decompressed size
	Members     int   // framing members in the stream
	Checkpoints []Checkpoint
}

// NumChunks reports how many checkpointed chunks the index carries.
func (x *Index) NumChunks() int { return len(x.Checkpoints) }

// ChunkStart returns the decompressed offset chunk i begins at.
func (x *Index) ChunkStart(i int) int64 { return x.Checkpoints[i].Out }

// ChunkLen returns the decompressed length of chunk i.
func (x *Index) ChunkLen(i int) int64 {
	if i+1 < len(x.Checkpoints) {
		return x.Checkpoints[i+1].Out - x.Checkpoints[i].Out
	}
	return x.RawSize - x.Checkpoints[i].Out
}

// ChunkOf returns the chunk containing decompressed offset off. The caller
// guarantees 0 <= off < RawSize.
func (x *Index) ChunkOf(off int64) int {
	i := sort.Search(len(x.Checkpoints), func(i int) bool { return x.Checkpoints[i].Out > off })
	return i - 1
}

// Validate checks the index's internal consistency against a compressed
// source of srcSize bytes: monotone checkpoints within bounds, windows no
// larger than the DEFLATE history, sizes coherent. It is the gate both for
// sidecars loaded from disk and for indexes handed to a ReaderAt.
func (x *Index) Validate(srcSize int64) error {
	switch x.Form {
	case FormatGzip, FormatZlib, FormatRaw:
	default:
		return fmt.Errorf("deflate: index: unknown format %d", x.Form)
	}
	if x.SrcSize != srcSize {
		return fmt.Errorf("deflate: index built for %d compressed bytes, source has %d", x.SrcSize, srcSize)
	}
	if x.RawSize < 0 || x.Members < 1 {
		return errors.New("deflate: index: bad sizes")
	}
	if len(x.Checkpoints) == 0 {
		if x.RawSize != 0 {
			return errors.New("deflate: index: no checkpoints for non-empty stream")
		}
		return nil
	}
	if x.Checkpoints[0].Out != 0 {
		return errors.New("deflate: index: first checkpoint not at offset 0")
	}
	prevOut, prevBit := int64(-1), int64(-1)
	for i := range x.Checkpoints {
		cp := &x.Checkpoints[i]
		if cp.Out <= prevOut || cp.Bit <= prevBit {
			return fmt.Errorf("deflate: index: checkpoint %d not monotone", i)
		}
		if cp.Bit < 0 || cp.Bit >= srcSize*8 {
			return fmt.Errorf("deflate: index: checkpoint %d bit offset out of range", i)
		}
		if len(cp.Window) > winSize {
			return fmt.Errorf("deflate: index: checkpoint %d window larger than %d", i, winSize)
		}
		prevOut, prevBit = cp.Out, cp.Bit
	}
	if x.RawSize <= x.Checkpoints[len(x.Checkpoints)-1].Out {
		return errors.New("deflate: index: raw size not past last checkpoint")
	}
	return nil
}

// Chunk decode scratch: the compressed span read from the source and the
// window-prefixed output buffer. Both vary in size with chunk spacing, so
// pool the backing arrays and grow on demand.
var (
	idxCompPool sync.Pool
	idxOutPool  sync.Pool
)

func getIdxBuf(pool *sync.Pool, n int) []byte {
	if v := pool.Get(); v != nil {
		if b := v.([]byte); cap(b) >= n {
			return b[:n]
		}
	}
	return make([]byte, n)
}

func putIdxBuf(pool *sync.Pool, b []byte) {
	if cap(b) > 0 {
		pool.Put(b[:0]) //nolint:staticcheck // slice header allocation is fine here
	}
}

// DecodeChunkInto decodes chunk i from src (the compressed stream the
// index was built over) into dst, which must be exactly ChunkLen(i) bytes.
// It reads only the compressed span covering the chunk, seeds a fresh
// engine from the checkpoint's window and bit offset, and decodes until
// dst fills. Safe for concurrent use.
func (x *Index) DecodeChunkInto(dst []byte, src io.ReaderAt, i int) error {
	cp := &x.Checkpoints[i]
	if int64(len(dst)) != x.ChunkLen(i) {
		return fmt.Errorf("deflate: chunk %d is %d bytes, dst is %d", i, x.ChunkLen(i), len(dst))
	}
	// The span ends at the next checkpoint's (partial) byte — block
	// boundaries are monotone, so every bit chunk i consumes lies below
	// it — or at end of source for the final chunk.
	first := cp.Bit >> 3
	end := x.SrcSize
	if i+1 < len(x.Checkpoints) {
		end = (x.Checkpoints[i+1].Bit + 7) >> 3
	}
	comp := getIdxBuf(&idxCompPool, int(end-first))
	defer putIdxBuf(&idxCompPool, comp)
	if n, err := src.ReadAt(comp, first); err != nil && !(err == io.EOF && n == len(comp)) {
		return err
	}
	hist := len(cp.Window)
	limit := hist + len(dst)
	buf := getIdxBuf(&idxOutPool, limit+runSlack)
	defer putIdxBuf(&idxOutPool, buf)
	copy(buf, cp.Window)
	var e engine
	e.reset(comp, cp.Bit-first*8)
	defer e.release()
	pos := hist
	for pos < limit {
		npos, ev, err := e.decodeInto(buf, pos, limit)
		pos = npos
		if err != nil {
			return reoffset(err, first)
		}
		if ev == evEOS && pos < limit {
			return corruptAt(first, "seek index disagrees with stream (member ended early)")
		}
	}
	copy(dst, buf[hist:limit])
	return nil
}

// reoffset shifts a decode Error's offset from span-relative to
// stream-absolute so chunk-decode failures report real positions.
func reoffset(err error, delta int64) error {
	var e *Error
	if errors.As(err, &e) {
		shifted := *e
		shifted.Off += delta
		return &shifted
	}
	return err
}

// collector accumulates checkpoints during a full decode.
type collector struct {
	every int64
	total int64 // decompressed bytes produced so far, across members
	cps   []Checkpoint
}

// add appends a checkpoint, replacing the previous one when it would make
// a zero-length chunk (empty member: two member starts at the same Out).
func (c *collector) add(cp Checkpoint) {
	if n := len(c.cps); n > 0 && c.cps[n-1].Out == cp.Out {
		c.cps[n-1] = cp
		return
	}
	c.cps = append(c.cps, cp)
}

// due reports whether a checkpoint will be owed once `pending` more
// output bytes are accounted.
func (c *collector) due(pending int) bool {
	return c.total+int64(pending)-c.cps[len(c.cps)-1].Out >= c.every
}

// maybeAdd records a block-boundary checkpoint once the spacing since the
// last checkpoint is reached, snapshotting the live window.
func (c *collector) maybeAdd(bit int64, win []byte) {
	if c.total-c.cps[len(c.cps)-1].Out < c.every {
		return
	}
	w := make([]byte, len(win))
	copy(w, win)
	c.add(Checkpoint{Bit: bit, Out: c.total, Window: w})
}

// CollectIndex arranges for this Reader to capture seek checkpoints every
// `every` decompressed bytes (0 selects DefaultCheckpointSpacing) as a
// side effect of a normal full decode — the first counting pass a server
// makes over a foreign object yields the index for free. It must be
// called before the first Read; Index returns the result after EOF.
func (r *Reader) CollectIndex(every int64) error {
	if r.collect != nil {
		return errors.New("deflate: index collection already enabled")
	}
	if every <= 0 {
		every = DefaultCheckpointSpacing
	}
	if !r.unread() {
		return errNotNew
	}
	r.collect = &collector{every: every}
	// NewReaderBytes already parsed the first member's header; record its
	// member-start checkpoint retroactively.
	r.collect.add(Checkpoint{Bit: r.eng.bit, Out: 0})
	return nil
}

// Index returns the seek index captured by CollectIndex. It is only
// complete once the stream decoded to EOF; before that it returns an
// error.
func (r *Reader) Index() (*Index, error) {
	if r.collect == nil {
		return nil, errors.New("deflate: index collection not enabled")
	}
	if r.err != io.EOF || r.ms != msDone {
		return nil, errors.New("deflate: stream not fully decoded")
	}
	c := r.collect
	cps := c.cps
	// Trim trailing checkpoints at or past the end (empty final member,
	// empty final blocks): they would make zero-length chunks.
	for len(cps) > 0 && cps[len(cps)-1].Out >= c.total {
		cps = cps[:len(cps)-1]
	}
	return &Index{
		Form:        r.form,
		SrcSize:     int64(len(r.data)),
		RawSize:     c.total,
		Members:     r.members,
		Checkpoints: cps,
	}, nil
}
