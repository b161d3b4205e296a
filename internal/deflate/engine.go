package deflate

import "gompresso/internal/bitio"

// blockHdr is one parsed DEFLATE block header.
type blockHdr struct {
	final     bool
	kind      uint8 // 0 stored, 1 fixed, 2 dynamic
	bit       int64 // first bit of the block's content (stored: byte-aligned)
	storedLen int
	tabs      *tables // the block's Huffman tables: t, or the fixed ones
}

// readBlockHeader parses the block header at absolute bit offset `bit`,
// filling t's tables for dynamic blocks. Fixed blocks use the shared
// fixed() tables; stored blocks report their payload position and length,
// and the payload lies within data.
func readBlockHeader(data []byte, bit int64, t *tables) (blockHdr, error) {
	var h blockHdr
	if bit+3 > int64(len(data))*8 {
		return h, truncatedAt(int64(len(data)), "block header past end of input")
	}
	cur := bitio.NewCursor(data, bit)
	cur.Refill()
	h.final = cur.Bits(1) == 1
	h.kind = uint8(cur.Bits(2))
	switch h.kind {
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
		if off+4+int64(n) > int64(len(data)) {
			return h, truncatedAt(int64(len(data)), "stored block past end of input")
		}
		h.storedLen = n
		h.bit = (off + 4) * 8
	case 1:
		h.bit = bit + 3
		h.tabs = fixed()
	case 2:
		if err := t.readDynamic(data, &cur, bit); err != nil {
			return h, err
		}
		h.bit = bit + cur.Consumed()
		h.tabs = t
	default:
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
// references resolve in place. The engine knows nothing about gzip/zlib
// framing or checksums; the Reader drives it between member boundaries, and
// under the hybrid schedule it decodes every span between speculative chunks
// and is the authority that re-derives exact error offsets when a
// speculative chunk fails.
type engine struct {
	data   []byte
	bit    int64 // absolute bit position of the next unread bit
	st     state
	final  bool
	stored int     // remaining stored-block bytes (st == stStored)
	huff   *tables // the current Huffman block's tables (st == stHuff)
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
// at least maxMatch bytes past limit: the last symbol may start one byte
// short of limit and its match copy runs to completion.
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
			e.st, e.huff = stHuff, h.tabs
			if h.kind == 0 {
				e.st, e.stored = stStored, h.storedLen
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
			npos, bit, _, done, err := inflate(e.huff, e.data, e.bit, dst, pos, limit, 0)
			if err != nil {
				return npos, 0, err
			}
			e.bit = bit
			if done {
				return npos, e.endBlock(), nil
			}
			return npos, evSpace, nil
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
