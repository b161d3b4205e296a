package deflate

import (
	"bytes"
	"compress/flate"
	"errors"
	"math"
	"slices"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/race"
)

// kernelFn is inflate's signature: the whole kernel, or the careful loop
// alone — the kernel with margins that never hold.
type kernelFn[T byte | uint16] func(t *tables, in []byte, bit int64, out []T, pos, limit, reach int) (int, int64, int, bool, error)

// decoded is everything a kernel run over a whole deflate stream leaves
// behind: the output, the bit after the final block, the lowest source
// position any match read, and the error that ended it early.
type decoded[T byte | uint16] struct {
	out []T
	end int64
	low int
	err error
}

// walkStream decodes the deflate stream at bit block by block, Huffman blocks
// through kernel in steps of room output positions, so the hand-off between
// the loops falls in many places.
func walkStream[T byte | uint16](data []byte, bit int64, reach, room int, kernel kernelFn[T]) decoded[T] {
	tabs := getTables()
	defer putTables(tabs)
	r := decoded[T]{end: bit}
	for {
		h, err := readBlockHeader(data, r.end, tabs)
		if err != nil {
			r.err = err
			return r
		}
		r.end = h.bit
		if h.kind == 0 {
			for _, b := range data[h.bit>>3:][:h.storedLen] {
				r.out = append(r.out, T(b))
			}
			r.end += int64(h.storedLen) * 8
		}
		for done := h.kind == 0; !done; {
			pos, low := len(r.out), 0
			r.out = append(r.out, make([]T, room+maxMatch)...)
			pos, r.end, low, done, r.err = kernel(h.tabs, data, r.end, r.out, pos, pos+room, reach)
			r.out, r.low = r.out[:pos], min(r.low, low)
			if r.err != nil {
				return r
			}
		}
		if h.final {
			return r
		}
	}
}

// sameDecoded asserts the kernel and the careful loop alone left the same
// output, end bit and lowest source, or failed alike after the same output.
func sameDecoded[T byte | uint16](t *testing.T, name string, got, want decoded[T]) {
	t.Helper()
	if !slices.Equal(got.out, want.out) {
		t.Fatalf("%s: %d positions decoded, the careful loop alone decodes %d (or they differ)", name, len(got.out), len(want.out))
	}
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error %v, the careful loop alone reports %v", name, got.err, want.err)
	}
	if want.err != nil {
		var ge, we *Error
		if !errors.As(got.err, &ge) || !errors.As(want.err, &we) || *ge != *we {
			t.Fatalf("%s: error %v, the careful loop alone reports %v", name, got.err, want.err)
		}
		return
	}
	if got.end != want.end || got.low != want.low {
		t.Fatalf("%s: ends at bit %d with lowest source %d, the careful loop alone at %d with %d", name, got.end, got.low, want.end, want.low)
	}
}

// bulkVsCareful runs one stream through both kernels for both output kinds.
// Cells start at every bit in starts (block boundaries: markers appear from
// the second on), bytes at the first.
func bulkVsCareful(t *testing.T, name string, data []byte, starts []int64, rooms ...int) {
	t.Helper()
	for _, room := range rooms {
		sameDecoded(t, name+"/bytes",
			walkStream(data, starts[0], 0, room, inflate[byte]),
			walkStream(data, starts[0], 0, room, careful[byte]))
		for _, bit := range starts {
			sameDecoded(t, name+"/cells",
				walkStream(data, bit, winSize, room, inflate[uint16]),
				walkStream(data, bit, winSize, room, careful[uint16]))
		}
	}
}

// The bulk loop is an optimisation of the careful one and nothing else: over
// the conformance corpus and stdlib-made streams of the three bench families
// the two leave identical output, end bit and lowest source position, for
// bytes and for cells, from the stream's start and from mid-stream boundaries.
func TestBulkMatchesCareful(t *testing.T) {
	streams := corpusFiles(t)
	size := 1 << 20
	if testing.Short() {
		size = 128 << 10
	}
	streams["wiki"] = stdGzip(t, datagen.WikiXML(size, 18))
	streams["matrix"] = stdGzip(t, datagen.MatrixMarket(size, 18))
	streams["nesting"] = stdGzip(t, datagen.Nesting(size, 4, 18))
	streams["zeros"] = stdGzip(t, make([]byte, size))
	deep := false
	for name, gz := range streams {
		start, err := parseGzipHeader(gz, 0)
		if err != nil {
			t.Fatal(err)
		}
		bounds := blockBoundaries(t, gz, start*8)
		starts := []int64{bounds[0], bounds[len(bounds)/2], bounds[len(bounds)-1]}
		bulkVsCareful(t, name, gz, starts, 64<<10, 1000)

		// The walk itself is held to the reference (it stops where the first
		// member does).
		want := stdGunzip(t, gz)
		got := walkStream(gz, start*8, 0, 64<<10, inflate[byte])
		if got.err != nil || !bytes.HasPrefix(want, got.out) || name != "multimember.gz" && len(got.out) != len(want) {
			t.Fatalf("%s: %d bytes, %v; want %d", name, len(got.out), got.err, len(want))
		}
		deep = deep || hasDeepCodes(t, gz, bounds)
	}
	if !deep {
		t.Error("no corpus member has a block whose litlen and distance codes both exceed the primary index widths: subtables go untested")
	}
}

// One block can outgrow the cell buffer more than once: a chunk of zeros
// doubles its way up from a buffer made for a short chunk between two
// end-of-block codes.
func TestChunkGrowsWithinOneBlock(t *testing.T) {
	raw := make([]byte, 6<<20)
	gz := stdGzip(t, raw)
	start, err := parseGzipHeader(gz, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(blockBoundaries(t, gz, start*8)); len(raw)/n < 2<<20 {
		t.Fatalf("%d blocks: too small to double a 1 Mi-cell buffer twice", n)
	}
	c := decodeChunk(gz, start*8, math.MaxInt64, make([]uint16, 0, 1<<20))
	defer putCells(c.cells)
	if c.err != nil || !c.sawEOS || len(c.cells) != len(raw) || slices.Max(c.cells) != 0 {
		t.Fatalf("%d cells (EOS %v), %v; want %d zeros", len(c.cells), c.sawEOS, c.err, len(raw))
	}
}

// hasDeepCodes reports whether some dynamic block of the stream sends both of
// its tables to subtables.
func hasDeepCodes(t *testing.T, gz []byte, bounds []int64) bool {
	tabs := getTables()
	defer putTables(tabs)
	sub := func(prim []uint32) bool {
		return slices.ContainsFunc(prim, func(e uint32) bool { return e&eSub != 0 })
	}
	for _, bit := range bounds {
		h, err := readBlockHeader(gz, bit, tabs)
		if err != nil {
			t.Fatal(err)
		}
		if h.kind == 2 && sub(tabs.lit[:1<<litPrim]) && sub(tabs.dist[:1<<distPrim]) {
			return true
		}
	}
	return false
}

// At every truncation point and every single-bit flip of small streams — a
// dynamic block, a fixed one (the only kind with codes for the forbidden
// symbols), and one whose distance tree is a single code — the kernel and
// the careful loop alone serve the same prefix and fail with the same kind
// and message at the same offset.
func TestBulkMatchesCarefulOnDamage(t *testing.T) {
	size := 6 << 10
	if race.Enabled || testing.Short() {
		size = 2 << 10 // one goroutine: the detector has nothing to find, only to slow
	}
	var dyn bytes.Buffer
	fw, _ := flate.NewWriter(&dyn, flate.BestCompression)
	fw.Write(datagen.WikiXML(size, 18))
	fw.Close()
	corpus := corpusFiles(t)
	for name, s := range map[string][]byte{
		"dynamic":    dyn.Bytes(),
		"fixed":      corpus["fixed.gz"][10:],
		"degenerate": corpus["dynamic-degenerate.gz"][10:],
	} {
		for cut := 0; cut <= len(s); cut++ {
			bulkVsCareful(t, name+"/cut", s[:cut], []int64{0}, 1<<10)
		}
		for bit := 0; bit < len(s)*8; bit++ {
			mut := bytes.Clone(s)
			mut[bit>>3] ^= 1 << (bit & 7)
			bulkVsCareful(t, name+"/flip", mut, []int64{0}, 1<<10)
		}
	}
}
