package deflate

import "sync"

// Speculative chunk decoding. A worker decoding mid-stream cannot know the
// 32 KiB of output preceding its chunk, so it decodes into 16-bit cells:
// values < 256 are literal bytes; values with bit 15 set are markers naming
// a position in the unseen window (0x8000|i ↦ "the byte produced 32768-i
// positions before this chunk"). In-chunk match copies move cells, so
// markers propagate through nested back-references and remain exact; the
// serving goroutine later replaces each marker with one window lookup. This
// is rapidgzip's two-pass window-resolution scheme, and as there it is kept
// for the chunks that truly lack a window: cells cost a second pass, twice
// the memory traffic and a probe for the chunk's start, so whatever the
// serving goroutine can reach with its window in hand it decodes
// conventionally, into bytes (Options.span sets the proportion).
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
	maxCellChunk = 8 << 20 // cells per chunk before giving up speculation
	// cellRoom is the least room a Huffman block is resumed with: enough that
	// the bulk loop, not its margins, does the decoding.
	cellRoom = 16 * bulkOutMargin
)

var errOversize = corruptAt(0, "speculative chunk output too large") // internal; never surfaces

var cellsPool sync.Pool

// getCells returns an empty cell buffer for a chunk of chunk compressed bytes.
// A new one has room for an eightfold expansion — text does four to six — so
// that it does not start life by doubling twice and leaving both halves to the
// collector: every buffer the pool loses to a collection is replaced by a new
// one.
func getCells(chunk int) []uint16 {
	if v := cellsPool.Get(); v != nil {
		return v.([]uint16)
	}
	return make([]uint16, 0, 8*chunk)
}

func putCells(c []uint16) {
	if c != nil {
		cellsPool.Put(c[:0]) //lint:ignore SA6002 slice header allocation is amortized
	}
}

// chunkResult is one speculative chunk's outcome, delivered in submission
// order to the serving goroutine. The chunk decoded the bits from its
// announced start to end into cells; sawEOS reports that the member's final
// block completed inside the chunk. minSrc is the most negative source
// position any back-reference reached, relative to the chunk start (0: the
// chunk is marker-free) — the one number needed to know every marker lands
// inside the member's real history. err records a speculative decode failure
// — never trusted directly: the region is re-decoded sequentially to obtain
// the authoritative error — and cells is then only a buffer to recycle.
type chunkResult struct {
	end    int64
	sawEOS bool
	cells  []uint16
	minSrc int
	err    error
}

// decodeChunk speculatively decodes from absolute bit offset start until it
// reaches a block boundary at or past endTarget or the end of the deflate
// stream. It stops only at block boundaries, so the serving goroutine can
// resume the sequential engine exactly at c.end.
func decodeChunk(data []byte, start, endTarget int64, cells []uint16) chunkResult {
	t := getTables()
	defer putTables(t)
	var c chunkResult
	bit := start
	for bit < endTarget {
		h, err := readBlockHeader(data, bit, t)
		if err != nil {
			c.err = err
			break
		}
		switch h.kind {
		case 0:
			if cells, c.err = ensureCells(cells, h.storedLen); c.err == nil {
				for _, b := range data[h.bit>>3:][:h.storedLen] {
					cells = append(cells, uint16(b))
				}
				bit = h.bit + int64(h.storedLen)*8
			}
		case 1, 2:
			var low int
			cells, bit, low, c.err = inflateCells(h.tabs, data, h.bit, cells)
			c.minSrc = min(c.minSrc, low)
		}
		if c.err != nil {
			break
		}
		if h.final {
			c.sawEOS = true
			break
		}
	}
	c.end, c.cells = bit, cells
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
	if newCap > maxCellChunk {
		newCap = maxCellChunk
	}
	grown := make([]uint16, len(cells), newCap)
	copy(grown, cells)
	return grown, nil
}

// inflateCells decodes the Huffman block at bit onto the end of cells, making
// room as it goes. Every distance is at most winSize, so a source position is
// an in-chunk cell or a window marker and none can escape both; copies only
// replicate markers that exist, so the lowest source position is exact.
func inflateCells(t *tables, data []byte, bit int64, cells []uint16) ([]uint16, int64, int, error) {
	pos, minSrc, done := len(cells), 0, false
	for !done {
		var err error
		if cells, err = ensureCells(cells[:pos], cellRoom); err != nil {
			return cells, 0, 0, err
		}
		cells = cells[:cap(cells)]
		var low int
		if pos, bit, low, done, err = inflate(t, data, bit, cells, pos, len(cells)-maxMatch, winSize); err != nil {
			return cells, 0, 0, err
		}
		minSrc = min(minSrc, low)
	}
	return cells[:pos], bit, minSrc, nil
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
