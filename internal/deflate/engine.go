package deflate

import (
	"gompresso/internal/bitio"
	"gompresso/internal/lz77"
)

// blockHdr is one parsed DEFLATE block header.
type blockHdr struct {
	final     bool
	kind      uint8 // 0 stored, 1 fixed, 2 dynamic
	bit       int64 // first bit of the block's content (stored: byte-aligned)
	storedLen int
}

// readBlockHeader parses the block header at absolute bit offset `bit`,
// filling t's tables for dynamic blocks. Fixed blocks use the shared
// fixed() tables; stored blocks report their payload position and length.
func readBlockHeader(data []byte, bit int64, t *tables) (blockHdr, error) {
	var h blockHdr
	if bit+3 > int64(len(data))*8 {
		return h, truncatedAt(int64(len(data)), "block header past end of input")
	}
	cur := bitio.NewCursor(data, bit)
	cur.Refill()
	h.final = cur.Bits(1) == 1
	switch cur.Bits(2) {
	case 0:
		off := (bit + 3 + 7) >> 3 // LEN/NLEN at the next byte boundary
		if off+4 > int64(len(data)) {
			return h, truncatedAt(int64(len(data)), "stored block length past end of input")
		}
		n := int(data[off]) | int(data[off+1])<<8
		inv := int(data[off+2]) | int(data[off+3])<<8
		if n != ^inv&0xffff {
			return h, corruptAt(off, "stored block length check failed")
		}
		h.kind = 0
		h.storedLen = n
		h.bit = (off + 4) * 8
	case 1:
		h.kind = 1
		h.bit = bit + 3
	case 2:
		h.kind = 2
		cur = bitio.NewCursor(data, bit+3)
		if err := t.readDynamic(data, &cur, bit+3); err != nil {
			return h, err
		}
		h.bit = bit + 3 + cur.Consumed()
	default:
		h.kind = 3
		return h, corruptAt(bit>>3, "reserved block type")
	}
	return h, nil
}

// event reports why a decode step returned.
type event uint8

const (
	evSpace    event = iota // output space exhausted; more of this block remains
	evBoundary              // a non-final block ended
	evEOS                   // the final block ended; the deflate stream is done
)

// engine is the sequential DEFLATE block decoder: a resumable state machine
// over an in-memory compressed stream. It decodes into caller-provided
// buffers whose prefix is the member's live history window, so back-
// references resolve with lz77.CopyWithin directly. The engine knows
// nothing about gzip/zlib framing or checksums; the Reader drives it
// between member boundaries, and the parallel resolver uses it both for
// catch-up decoding between speculative chunks and as the authority that
// re-derives exact error offsets when a speculative chunk fails.
type engine struct {
	data   []byte
	bit    int64 // absolute bit position of the next unread bit
	st     state
	final  bool
	stored int  // remaining stored-block bytes (st == stStored)
	fixed  bool // current Huffman block uses the fixed tables
	tabs   *tables
}

type state uint8

const (
	stBlock  state = iota // expecting a block header at e.bit
	stStored              // inside a stored block
	stHuff                // inside a Huffman-coded block
	stEOS                 // final block complete
)

// reset points the engine at a deflate stream starting at bit within data.
func (e *engine) reset(data []byte, bit int64) {
	if e.tabs == nil {
		e.tabs = getTables()
	}
	e.data = data
	e.bit = bit
	e.st = stBlock
	e.final = false
	e.stored = 0
}

// release returns pooled resources. The engine may be reset and reused.
func (e *engine) release() {
	if e.tabs != nil {
		putTables(e.tabs)
		e.tabs = nil
	}
}

// decodeInto resumes decoding into dst[pos:], stopping when pos reaches
// limit, at every block boundary, at end of stream, or on error. dst[:pos]
// must hold the member's history (for back-references) and dst must extend
// at least maxMatch+8 bytes past limit: match copies run to completion and
// lz77.CopyWithin's wild path may scribble a further 7 bytes.
func (e *engine) decodeInto(dst []byte, pos, limit int) (int, event, error) {
	for {
		switch e.st {
		case stEOS:
			return pos, evEOS, nil
		case stBlock:
			h, err := readBlockHeader(e.data, e.bit, e.tabs)
			if err != nil {
				return pos, 0, err
			}
			e.final = h.final
			e.bit = h.bit
			switch h.kind {
			case 0:
				if int(h.bit>>3)+h.storedLen > len(e.data) {
					return pos, 0, truncatedAt(int64(len(e.data)), "stored block past end of input")
				}
				e.st = stStored
				e.stored = h.storedLen
			case 1:
				e.st = stHuff
				e.fixed = true
			default:
				e.st = stHuff
				e.fixed = false
			}
		case stStored:
			off := int(e.bit >> 3)
			n := e.stored
			if n > limit-pos {
				n = limit - pos
			}
			copy(dst[pos:pos+n], e.data[off:off+n])
			pos += n
			e.stored -= n
			e.bit += int64(n) * 8
			if e.stored > 0 {
				return pos, evSpace, nil
			}
			return pos, e.endBlock(), nil
		default: // stHuff
			return e.huffLoop(dst, pos, limit)
		}
	}
}

// endBlock advances past a completed block.
func (e *engine) endBlock() event {
	if e.final {
		e.st = stEOS
		return evEOS
	}
	e.st = stBlock
	return evBoundary
}

// huffWorst is the worst-case bits one litlen+extra+dist+extra group can
// consume: 15+5+15+13. A refill guaranteeing this many bits covers a whole
// iteration, so the fast loop needs no per-read bounds checks.
const huffWorst = 48

// huffLoop decodes Huffman-coded symbols into dst[pos:limit]. It is the
// host hot path: one packed-LUT lookup per symbol on a register-resident
// bitio.Cursor, match expansion via lz77.CopyWithin. Truncation is handled
// with the cursor's deferred overrun accounting: while ≥ huffWorst bits are
// buffered the iteration cannot overrun; once the refill comes up short
// (end of input near) the loop snapshots pos each iteration so an
// overrunning symbol's partial output is rolled back, never served.
func (e *engine) huffLoop(dst []byte, pos, limit int) (int, event, error) {
	t := e.tabs
	if e.fixed {
		t = fixed()
	}
	lit, dist := t.lit, t.dist
	litMask, distMask := t.litMask, t.distMask
	cur := bitio.NewCursor(e.data, e.bit)
	base := e.bit
	tail := false
	fail := func(msg string) (int, event, error) {
		if cur.Overrun() {
			return pos, 0, truncatedAt(int64(len(e.data)), "compressed data past end of input")
		}
		return pos, 0, corruptAt((base+cur.Consumed())>>3, msg)
	}
	for {
		if pos >= limit {
			e.bit = base + cur.Consumed()
			return pos, evSpace, nil
		}
		if cur.Buffered() < huffWorst {
			cur.Refill()
			if cur.Overrun() {
				return fail("")
			}
			tail = cur.Buffered() < huffWorst
		}
		posIter := pos
		eL := lit[cur.Window(litMask)]
		l := uint(eL & 0xff)
		if l == 0 {
			return fail("invalid literal/length code")
		}
		cur.Skip(l)
		sym := eL >> 8
		if sym < endBlock {
			dst[pos] = byte(sym)
			pos++
			if tail && cur.Overrun() {
				pos = posIter
				return fail("")
			}
			continue
		}
		if sym == endBlock {
			if tail && cur.Overrun() {
				return fail("")
			}
			e.bit = base + cur.Consumed()
			return pos, e.endBlock(), nil
		}
		if sym >= maxLitLen {
			return fail("invalid length symbol")
		}
		li := sym - endBlock - 1
		length := int(lengthBase[li]) + int(cur.Bits(uint(lengthExtra[li])))
		eD := dist[cur.Window(distMask)]
		dl := uint(eD & 0xff)
		if dl == 0 {
			return fail("invalid distance code")
		}
		cur.Skip(dl)
		dsym := eD >> 8
		if dsym >= maxDist {
			return fail("invalid distance symbol")
		}
		d := int(distBase[dsym]) + int(cur.Bits(uint(distExtra[dsym])))
		if tail && cur.Overrun() {
			pos = posIter
			return fail("")
		}
		if d > pos {
			return fail("distance beyond available history")
		}
		pos = lz77.CopyWithin(dst, pos, d, length)
	}
}
