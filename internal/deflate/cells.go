package deflate

import (
	"sync"

	"gompresso/internal/bitio"
)

// Speculative chunk decoding. A worker decoding mid-stream cannot know the
// 32 KiB of output preceding its chunk, so it decodes into 16-bit cells:
// values < 256 are literal bytes; values with bit 15 set are markers naming
// a position in the unseen window (0x8000|i ↦ "the byte produced 32768-i
// positions before this chunk"). In-chunk match copies move cells, so
// markers propagate through nested back-references and remain exact; the
// in-order resolution stage later replaces each marker with one window
// lookup. This is rapidgzip's two-pass window-resolution scheme.
//
// The encoding doubles as the index of the resolver's table: lut[b] = b for
// literals and lut[markerBit|i] = window byte i, so resolution is one
// unconditional load per cell (resolveCells).
const markerBit = 0x8000

// cell output growth/size policy. A chunk's decompressed size is unknown in
// advance; buffers grow geometrically and a runaway chunk (a pathological
// ratio that would balloon speculative memory) aborts with errOversize so
// the resolver decodes that region sequentially in bounded memory instead.
const (
	cellSlack    = maxMatch + 8
	maxCellChunk = 8 << 20 // cells per chunk before giving up speculation
	// cellRefill bounds the cells cellHuffLoop can emit between two refills
	// of its bit cursor: a refill leaves ≤ 64 bits and the next one comes
	// once < huffWorst remain, so at most 17 symbols start in between, each
	// worth at most one maximal match.
	cellRefill = 17*maxMatch + cellSlack
)

var errOversize = corruptAt(0, "speculative chunk output too large") // internal; never surfaces

var cellsPool sync.Pool

func getCells() []uint16 {
	if v := cellsPool.Get(); v != nil {
		return v.([]uint16)
	}
	return make([]uint16, 0, 1<<20)
}

func putCells(c []uint16) {
	if c != nil {
		cellsPool.Put(c[:0]) //lint:ignore SA6002 slice header allocation is amortized
	}
}

// chunkResult is one speculative chunk's outcome, delivered in submission
// order to the resolver. The chunk decoded the bit range [start, end) into
// cells; sawEOS reports that the member's final block completed inside the
// chunk. minSrc is the most negative source position any back-reference
// reached, relative to the chunk start (0: the chunk is marker-free) — the
// one number the resolver needs to know every marker lands inside the
// member's real history. err records a speculative decode failure — the
// resolver never trusts it directly, it re-decodes sequentially to obtain
// the authoritative error (or to discover the chunk start was a
// misprediction and the "failure" was garbage).
type chunkResult struct {
	start  int64
	end    int64
	sawEOS bool
	cells  []uint16
	minSrc int
	err    error
}

// decodeChunk speculatively decodes from absolute bit offset start until it
// reaches a block boundary at or past endTarget (endTarget < 0: until end
// of stream). It stops only at block boundaries, so the resolver can splice
// the next chunk or resume the sequential engine exactly at c.end.
func decodeChunk(data []byte, start, endTarget int64) chunkResult {
	t := getTables()
	defer putTables(t)
	cells := getCells()
	c := chunkResult{start: start}
	bit := start
	for {
		if endTarget >= 0 && bit >= endTarget {
			break
		}
		h, err := readBlockHeader(data, bit, t)
		if err != nil {
			c.err = err
			break
		}
		switch h.kind {
		case 0:
			off := int(h.bit >> 3)
			if off+h.storedLen > len(data) {
				c.err = truncatedAt(int64(len(data)), "stored block past end of input")
			} else {
				if cells, err = ensureCells(cells, h.storedLen); err != nil {
					c.err = err
				} else {
					for _, b := range data[off : off+h.storedLen] {
						cells = append(cells, uint16(b))
					}
					bit = h.bit + int64(h.storedLen)*8
				}
			}
		case 1, 2:
			var low int
			cells, bit, low, err = cellHuffLoop(data, h.bit, t, h.kind == 1, cells)
			c.minSrc = min(c.minSrc, low)
			c.err = err
		}
		if c.err != nil {
			break
		}
		if h.final {
			c.sawEOS = true
			break
		}
	}
	c.end = bit
	if c.err != nil {
		putCells(cells)
		c.cells = nil
	} else {
		c.cells = cells
	}
	return c
}

// ensureCells guarantees room to append n more cells, enforcing the
// speculation size cap.
func ensureCells(cells []uint16, n int) ([]uint16, error) {
	need := len(cells) + n
	if need > maxCellChunk {
		return cells, errOversize
	}
	if need <= cap(cells) {
		return cells, nil
	}
	newCap := 2 * cap(cells)
	if newCap < need {
		newCap = need
	}
	if newCap > maxCellChunk+cellSlack {
		newCap = maxCellChunk + cellSlack
	}
	grown := make([]uint16, len(cells), newCap)
	copy(grown, cells)
	return grown, nil
}

// spanCells returns cells[:pos] stretched over its whole capacity, with room
// past pos for everything one cursor refill can decode.
func spanCells(cells []uint16, pos int) ([]uint16, error) {
	cells, err := ensureCells(cells[:pos], cellRefill)
	return cells[:cap(cells)], err
}

// cellHuffLoop is huffLoop's speculative twin: same symbol decode on the
// same packed tables, but emitting cells and representing back-references
// into the unseen pre-chunk window as markers. It also returns the most
// negative source position a match reached (≤ 0): copies only replicate
// markers that already exist, so tracking at synthesis is exact. Room for
// output is checked once per cursor refill, not per symbol.
func cellHuffLoop(data []byte, bit int64, t *tables, useFixed bool, cells []uint16) ([]uint16, int64, int, error) {
	if useFixed {
		t = fixed()
	}
	lit, dist := t.lit, t.dist
	litMask, distMask := t.litMask, t.distMask
	cur := bitio.NewCursor(data, bit)
	base := bit
	tail := false
	pos, low := len(cells), 0
	fail := func(msg string) ([]uint16, int64, int, error) {
		if cur.Overrun() {
			return cells, 0, 0, truncatedAt(int64(len(data)), "compressed data past end of input")
		}
		return cells, 0, 0, corruptAt((base+cur.Consumed())>>3, msg)
	}
	// The cursor may start with enough bits to skip its first refill.
	cells, err := spanCells(cells, pos)
	if err != nil {
		return cells, 0, 0, err
	}
	for {
		if cur.Buffered() < huffWorst {
			cur.Refill()
			if cur.Overrun() {
				return fail("")
			}
			tail = cur.Buffered() < huffWorst
			if pos+cellRefill > len(cells) {
				if cells, err = spanCells(cells, pos); err != nil {
					return cells, 0, 0, err
				}
			}
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
			cells[pos] = uint16(sym)
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
			return cells[:pos], base + cur.Consumed(), low, nil
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
		// d ≤ 32768 by construction, so every source position is either an
		// in-chunk cell or a window marker; no distance can escape both.
		low = min(low, pos-d)
		pos = copyCells(cells, pos, d, length)
	}
}

// copyCells expands the back-reference (d, length) at cell position pos,
// synthesizing markers for source positions before the chunk start and
// replicating cells (markers included) for overlapping copies.
func copyCells(cells []uint16, pos, d, length int) int {
	src := pos - d
	end := pos + length
	for src < 0 && pos < end {
		cells[pos] = markerBit | uint16(winSize+src)
		src++
		pos++
	}
	if pos >= end {
		return end
	}
	if rem := end - pos; d >= rem {
		copy(cells[pos:end], cells[src:src+rem])
		return end
	}
	if d == 1 {
		v := cells[src]
		for ; pos < end; pos++ {
			cells[pos] = v
		}
		return end
	}
	// Overlapping copy with widening stride, as lz77.CopyWithin.
	for pos < end {
		pos += copy(cells[pos:end], cells[src:pos])
	}
	return end
}

// resolveCells converts cells to bytes through lut, whose upper half holds
// the 32 KiB window preceding the chunk (lut[markerBit|i] = window byte i;
// a shorter window fills the top end, and the resolver has already checked
// that no marker points below it). A uint16 index into a 1<<16 array needs
// no bounds check and no branch.
func resolveCells(dst []byte, cells []uint16, lut *[1 << 16]byte) {
	dst = dst[:len(cells)]
	for i, c := range cells {
		dst[i] = lut[c]
	}
}
