package deflate

import (
	"math/bits"
	"sync"

	"gompresso/internal/bitio"
)

// Decode-table entries, one uint32 per window of upcoming stream bits. As in
// internal/format's fused tables the low six bits are everything the symbol
// takes from the bit buffer — code and extra bits — so one shift consumes it:
//
//	bits 0–5    bits to consume; 0 only in the entry of a window no code covers
//	bit  6      eLit: a literal, its byte in the payload
//	bit  7      eSub: the code is longer than the primary index; the payload
//	            is where its subtable starts and bits 8–11 are that table's
//	            index width
//	bits 8–11   code length: the extra bits are the consumed bits above it
//	bit  12     eExc: what the bulk loop leaves to the careful one — no code
//	            (nothing else set), end of block (payload 0) or a symbol the
//	            fixed trees define but no stream may use (payload 1)
//	bits 16–31  payload: literal byte, length or distance base, subtable start
const (
	eBits = 63
	eLit  = 1 << 6
	eSub  = 1 << 7
	eExc  = 1 << 12
)

// Primary index widths, and the most entries primary table plus subtables can
// take for any complete code of at most 15 bits over 288 (32, 19) symbols —
// zlib's `enough` bounds. 2,342 + 402 entries are 11 KB: both tables of a
// block fit a 32 KB L1d with room left for the bytes being copied.
const (
	litPrim, litEnough   = 11, 2342
	distPrim, distEnough = 8, 402
	clPrim, clEnough     = 7, 128
)

// litTmpl, distTmpl and clTmpl hold each symbol's entry less its code length:
// flags, payload, and the extra-bit count where the bits to consume go.
var litTmpl, distTmpl, clTmpl = func() (lit [288]uint32, dist [32]uint32, cl [19]uint32) {
	for s := range lit {
		switch {
		case s < endBlock:
			lit[s] = eLit | uint32(s)<<16
		case s == endBlock:
			lit[s] = eExc
		case s < maxLitLen:
			lit[s] = uint32(lengthBase[s-endBlock-1])<<16 | uint32(lengthExtra[s-endBlock-1])
		default:
			lit[s] = eExc | 1<<16
		}
	}
	for s := range dist {
		dist[s] = eExc | 1<<16
		if s < maxDist {
			dist[s] = distBase[s]<<16 | uint32(distExtra[s])
		}
	}
	for s := range cl {
		cl[s] = uint32(s) << 16
	}
	return
}()

// buildTab fills tab with the two-level decode table of the canonical code
// lengths describe: 1<<prim primary entries, then a subtable for every prim-bit
// prefix that longer codes share, just wide enough for the longest of them.
// The validity rules are compress/flate's (the differential fuzz harness holds
// the equivalence): a code must be complete, or a single code of length 1, or
// empty — DEFLATE permits an empty distance tree, and using it is the error,
// not declaring it.
func buildTab(tab []uint32, prim int, lengths []uint8, tmpl []uint32) bool {
	var count, offs [16]int
	for _, l := range lengths {
		count[l]++
	}
	used, kraft := len(lengths)-count[0], 0
	for l := 1; l < 16; l++ {
		kraft += count[l] << (15 - l)
		offs[l] = offs[l-1] + count[l-1]
	}
	if used > 1 && kraft != 1<<15 || used == 1 && count[1] != 1 {
		return false
	}
	var sorted [288]uint16 // symbols by code length, then value: canonical order
	for s, l := range lengths {
		sorted[offs[l]] = uint16(s)
		offs[l]++
	}
	if used < 2 { // a complete code covers every window
		for i := range tab[:1<<prim] {
			tab[i] = eExc
		}
	}
	next, sub, subAt, prefix := 1<<prim, 0, 0, -1
	code, syms := 0, sorted[count[0]:]
	for l := 1; l < 16; l++ {
		for n := count[l]; n > 0; n-- {
			// The bit-reversed code is the codeword as the low bits of an
			// LSB-first window hold it.
			rev := int(bits.Reverse16(uint16(code)) >> (16 - l))
			e := tmpl[syms[0]] + uint32(l)<<8 + uint32(l)
			code, syms = code+1, syms[1:]
			if l <= prim {
				for w := rev; w < 1<<prim; w += 1 << l {
					tab[w] = e
				}
				continue
			}
			if p := rev & (1<<prim - 1); p != prefix {
				// Codes come in order of length, so the n left at this length
				// lead the prefix; widen until what follows them fills it.
				prefix, sub, subAt = p, l-prim, next
				for space := n; space < 1<<sub; space = space<<1 + count[prim+sub] {
					sub++
				}
				if next += 1 << sub; next > len(tab) {
					return false
				}
				tab[p] = eSub | uint32(subAt)<<16 | uint32(sub)<<8
			}
			for w := rev >> prim; w < 1<<sub; w += 1 << (l - prim) {
				tab[subAt+w] = e
			}
		}
		code <<= 1
	}
	return true
}

// lookup returns the entry for the code that starts the window w (at least 15
// valid bits) in a table with a prim-bit primary index.
func lookup(tab []uint32, prim uint, w uint64) uint32 {
	e := tab[w&(1<<prim-1)]
	if e&eSub != 0 {
		e = tab[e>>16+uint32(w>>prim)&(1<<(e>>8&15)-1)]
	}
	return e
}

// tables holds the decode tables of one DEFLATE block plus the scratch the
// dynamic-header parser needs, every array sized once to its bound. Instances
// are pooled: a worker reuses one tables value for every block of its chunk
// with zero steady-state allocations.
type tables struct {
	lit  [litEnough]uint32
	dist [distEnough]uint32

	// Dynamic-header scratch: litlen and dist code lengths back to back
	// (repeat codes may run across the boundary, per the RFC), the
	// code-length code's lengths, and its decode table.
	lens   [maxLitLen + maxDist]uint8
	clLens [19]uint8
	cl     [clEnough]uint32
}

var tablesPool = sync.Pool{New: func() any { return new(tables) }}

//lint:allow poolescape sanctioned lifecycle helper, paired with putTables
func getTables() *tables  { return tablesPool.Get().(*tables) }
func putTables(t *tables) { tablesPool.Put(t) }

// readDynamic parses a dynamic block header (cur has consumed its 3 header
// bits) and fills t.lit/t.dist. bitBase is cur's absolute starting bit, used
// to pin error offsets. Reads past end-of-input surface as an ErrTruncated
// error via the cursor's deferred overrun accounting.
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
	if !buildTab(t.cl[:], clPrim, t.clLens[:], clTmpl[:]) {
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
		e := t.cl[cur.Window(1<<clPrim-1)]
		if e&eBits == 0 {
			return fail("invalid code-length symbol")
		}
		cur.Skip(uint(e & eBits))
		sym := int(e >> 16)
		if sym < 16 {
			lens[i] = uint8(sym)
			prev = sym
			i++
			continue
		}
		rep, msg := 0, "zero repeat overflows code count"
		switch sym {
		case 16:
			if prev < 0 {
				return fail("length repeat with no previous length")
			}
			rep, msg = int(cur.Bits(2))+3, "length repeat overflows code count"
		case 17:
			rep, prev = int(cur.Bits(3))+3, 0
		default:
			rep, prev = int(cur.Bits(7))+11, 0
		}
		if i+rep > n {
			return fail(msg)
		}
		for ; rep > 0; rep-- {
			lens[i] = uint8(prev)
			i++
		}
	}
	if cur.Overrun() {
		return fail("")
	}
	if !buildTab(t.lit[:], litPrim, lens[:hlit], litTmpl[:]) {
		return fail("invalid literal/length code")
	}
	if !buildTab(t.dist[:], distPrim, lens[hlit:n], distTmpl[:]) {
		return fail("invalid distance code")
	}
	return nil
}

var (
	fixedOnce sync.Once
	fixedTabs tables
)

// fixed returns the tables of the fixed Huffman codes (RFC 1951 §3.2.6).
func fixed() *tables {
	fixedOnce.Do(func() {
		var lens [288 + 32]uint8
		for i := range lens {
			switch {
			case i < 144:
				lens[i] = 8
			case i < 256:
				lens[i] = 9
			case i < 280:
				lens[i] = 7
			case i < 288:
				lens[i] = 8
			default:
				lens[i] = 5
			}
		}
		if !buildTab(fixedTabs.lit[:], litPrim, lens[:288], litTmpl[:]) ||
			!buildTab(fixedTabs.dist[:], distPrim, lens[288:], distTmpl[:]) {
			panic("deflate: fixed Huffman codes do not build")
		}
	})
	return &fixedTabs
}
