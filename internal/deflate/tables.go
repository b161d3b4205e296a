package deflate

import (
	"sync"

	"gompresso/internal/bitio"
	"gompresso/internal/huffman"
)

// tables holds the decode tables of one DEFLATE block plus the scratch the
// dynamic-header parser needs. Tables are the packed single-lookup LUTs of
// internal/huffman (entry = sym<<8 | codeLen, built by huffman.FillTable),
// sized to the block's actual maximum code length so short-code blocks pay
// small fills. Instances are pooled: a worker reuses one tables value for
// every block of its chunk with zero steady-state allocations.
type tables struct {
	lit      []uint32
	dist     []uint32
	litMask  uint64
	distMask uint64

	// Dynamic-header scratch: litlen and dist code lengths back to back
	// (repeat codes may run across the boundary, per the RFC), the
	// code-length code's lengths, and its decode table.
	lens   [maxLitLen + maxDist]uint8
	clLens [19]uint8
	clTab  []uint32
	clMask uint64
}

var tablesPool = sync.Pool{New: func() any { return new(tables) }}

//lint:allow poolescape sanctioned lifecycle helper, paired with putTables
func getTables() *tables  { return tablesPool.Get().(*tables) }
func putTables(t *tables) { tablesPool.Put(t) }

// buildTab constructs a packed decode table for a canonical code described
// by its code-length array, mirroring compress/flate's validity rules
// exactly (the differential fuzz harness holds this equivalence): a code
// must be complete, or a single code of length 1, or empty.
func buildTab(store []uint32, lengths []uint8) (tab []uint32, mask uint64, err error) {
	used, max, one := 0, 0, -1
	for s, l := range lengths {
		if l > 0 {
			used++
			one = s
			if int(l) > max {
				max = int(l)
			}
		}
	}
	if used == 0 {
		// The table of an empty tree: every window is invalid. DEFLATE
		// permits an empty distance tree (a block with no matches); using it
		// is the error, not declaring it — the same rule as compress/flate.
		// It is built in the caller's store like any other table: the caller
		// hands the result back as the next block's store, so a table shared
		// between callers would be overwritten by that block's code.
		return append(store[:0], 0, 0), 1, nil
	}
	if used == 1 && lengths[one] != 1 {
		return nil, 0, huffman.ErrBadLengths
	}
	tab, err = huffman.FillTable(store, lengths, max, 0, func(sym int, codeLen uint8) uint32 {
		return uint32(sym)<<8 | uint32(codeLen)
	})
	if err != nil {
		return nil, 0, err
	}
	return tab, uint64(1)<<max - 1, nil
}

// readDynamic parses a dynamic block header (cur positioned after the
// 3 header bits) and fills t.lit/t.dist. bitBase is cur's absolute starting
// bit, used to pin error offsets. Reads past end-of-input surface as an
// ErrTruncated error via the cursor's deferred overrun accounting.
func (t *tables) readDynamic(data []byte, cur *bitio.Cursor, bitBase int64) error {
	fail := func(msg string) error {
		if cur.Overrun() {
			return truncatedAt(int64(len(data)), "dynamic block header past end of input")
		}
		return corruptAt((bitBase+cur.Consumed())>>3, msg)
	}
	cur.Refill()
	hlit := int(cur.Bits(5)) + 257
	hdist := int(cur.Bits(5)) + 1
	hclen := int(cur.Bits(4)) + 4
	if hlit > maxLitLen || hdist > maxDist {
		return fail("dynamic header symbol counts out of range")
	}
	t.clLens = [19]uint8{}
	for i := 0; i < hclen; i++ {
		if cur.Buffered() < 3 {
			cur.Refill()
		}
		t.clLens[codeOrder[i]] = uint8(cur.Bits(3))
	}
	if cur.Overrun() {
		return fail("")
	}
	var err error
	t.clTab, t.clMask, err = buildTab(t.clTab, t.clLens[:])
	if err != nil {
		return fail("invalid code-length code")
	}
	// Decode the hlit+hdist code lengths, with 16/17/18 repeats allowed to
	// run from the litlen section into the dist section.
	n := hlit + hdist
	lens := t.lens[:]
	prev := -1
	for i := 0; i < n; {
		if cur.Buffered() < 14 {
			cur.Refill()
		}
		e := t.clTab[cur.Window(t.clMask)]
		l := uint(e & 0xff)
		if l == 0 {
			return fail("invalid code-length symbol")
		}
		cur.Skip(l)
		sym := int(e >> 8)
		switch {
		case sym < 16:
			lens[i] = uint8(sym)
			prev = sym
			i++
		case sym == 16:
			if prev < 0 {
				return fail("length repeat with no previous length")
			}
			rep := int(cur.Bits(2)) + 3
			if i+rep > n {
				return fail("length repeat overflows code count")
			}
			for j := 0; j < rep; j++ {
				lens[i+j] = uint8(prev)
			}
			i += rep
		case sym == 17:
			rep := int(cur.Bits(3)) + 3
			if i+rep > n {
				return fail("zero repeat overflows code count")
			}
			for j := 0; j < rep; j++ {
				lens[i+j] = 0
			}
			i += rep
			prev = 0
		default: // 18
			rep := int(cur.Bits(7)) + 11
			if i+rep > n {
				return fail("zero repeat overflows code count")
			}
			for j := 0; j < rep; j++ {
				lens[i+j] = 0
			}
			i += rep
			prev = 0
		}
	}
	if cur.Overrun() {
		return fail("")
	}
	if t.lit, t.litMask, err = buildTab(t.lit, lens[:hlit]); err != nil {
		return fail("invalid literal/length code")
	}
	if t.dist, t.distMask, err = buildTab(t.dist, lens[hlit:n]); err != nil {
		return fail("invalid distance code")
	}
	return nil
}

var (
	fixedOnce sync.Once
	fixedTabs tables
)

func fixed() *tables {
	fixedOnce.Do(func() {
		var litLens [288]uint8
		for i := range litLens {
			switch {
			case i < 144:
				litLens[i] = 8
			case i < 256:
				litLens[i] = 9
			case i < 280:
				litLens[i] = 7
			default:
				litLens[i] = 8
			}
		}
		var distLens [32]uint8
		for i := range distLens {
			distLens[i] = 5
		}
		var err error
		if fixedTabs.lit, fixedTabs.litMask, err = buildTab(nil, litLens[:]); err != nil {
			panic(err)
		}
		if fixedTabs.dist, fixedTabs.distMask, err = buildTab(nil, distLens[:]); err != nil {
			panic(err)
		}
	})
	return &fixedTabs
}
