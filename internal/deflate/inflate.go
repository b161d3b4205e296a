package deflate

import (
	"encoding/binary"

	"gompresso/internal/bitio"
)

// The decode kernel: the symbols of one Huffman-coded block, from the bit
// after its header to its end-of-block code. Output is bytes (the sequential
// engine: out[:pos] is the history) or 16-bit cells (a speculative chunk: a
// back-reference may reach up to winSize positions before out[0], and what it
// finds there is a marker). A bulk loop proves its bounds once per iteration
// and decodes while they hold; it never fails — whatever it cannot finish it
// hands, at a symbol boundary, to the careful loop, which checks every step
// and is the only source of errors, so a stream fails the same way wherever
// the hand-off falls.

// Margins of the bulk loop, checked at the top of every iteration.
//
// bulkInMargin: an iteration refills at most twice; the first load advances
// by up to 7 bytes and the second reads 8 more.
//
// bulkOutMargin: an iteration stores at most three literals, or two and a
// match of maxMatch whose copy overshoots by less than a 16-element step.
const (
	bulkInMargin  = 16
	bulkOutMargin = 3 + maxMatch + 16
)

// huffWorst is the most bits one symbol can take — 15+5 for a length code
// and its extra bits, 15+13 for the distance — so a refill that leaves this
// many covers it. The bulk loop spends at most 3·litPrim on literals and
// refills again to 56 before a length.
const huffWorst = 48

// refill tops the bit buffer up to 56–63 valid bits without a branch: one
// 8-byte load ORed in above the nacc bits already there, next advanced by the
// whole bytes that fit. Re-loading a partially consumed byte ORs identical
// bits. The caller guarantees nacc ≤ 63 and 8 readable bytes at in[next:].
func refill(in []byte, acc uint64, nacc uint, next int) (uint64, uint, int) {
	return acc | binary.LittleEndian.Uint64(in[next:])<<nacc, nacc | 56, next + int(63-nacc)>>3
}

// literal stores the byte of a literal entry and drops its code from the bit
// buffer.
func literal[T byte | uint16](out []T, pos int, acc uint64, nacc uint, e uint32) (int, uint64, uint) {
	out[pos] = T(e >> 16)
	return pos + 1, acc >> (e & eBits), nacc - uint(e&eBits)
}

// inflate decodes symbols into out from pos until a symbol ends at or past
// limit (done false) or the block ends (done true). out must extend maxMatch
// past limit. reach is how far before out[0] a distance may point: 0 for
// bytes, winSize for cells. It returns the new output and bit positions and
// the lowest source position a match read (≤ 0).
func inflate[T byte | uint16](t *tables, in []byte, bit int64, out []T, pos, limit, reach int) (npos int, nbit int64, low int, done bool, err error) {
	// Every symbol the bulk loop starts must start below limit, as the careful
	// loop's do, and an iteration starts up to three.
	pos, bit, low = bulk(t, in, bit, out, pos, min(limit-3, len(out)-bulkOutMargin), reach)
	npos, nbit, lowc, done, err := careful(t, in, bit, out, pos, limit, reach)
	return npos, nbit, min(low, lowc), done, err
}

// careful is the kernel's per-symbol loop and the authority for every error
// kind, message and offset: it decodes the end of every block, the last bytes
// of input and output, and whatever the bulk loop stopped in front of. With
// out nil it stores nothing and counts: pos and limit are in symbols.
func careful[T byte | uint16](t *tables, in []byte, bit int64, out []T, pos, limit, reach int) (npos int, nbit int64, low int, done bool, err error) {
	cur := bitio.NewCursor(in, bit)
	tail := false
	fail := func(msg string) (int, int64, int, bool, error) {
		if cur.Overrun() {
			return pos, 0, 0, false, truncatedAt(int64(len(in)), "compressed data past end of input")
		}
		return pos, 0, 0, false, corruptAt((bit+cur.Consumed())>>3, msg)
	}
	// While ≥ huffWorst bits are buffered a symbol cannot overrun; once a
	// refill comes up short (end of input near) every symbol checks before
	// it stores, so output past the end of the input is never served.
	for pos < limit {
		if cur.Buffered() < huffWorst {
			cur.Refill()
			if cur.Overrun() {
				return fail("")
			}
			tail = cur.Buffered() < huffWorst
		}
		e := lookup(t.lit[:], litPrim, cur.Peek(15))
		if e&eBits == 0 {
			return fail("invalid literal/length code")
		}
		v := cur.Bits(uint(e & eBits))
		if e&eExc != 0 && e>>16 != 0 {
			return fail("invalid length symbol")
		}
		if tail && cur.Overrun() {
			return fail("")
		}
		if e&eExc != 0 {
			return pos, bit + cur.Consumed(), low, true, nil
		}
		if e&eLit != 0 {
			if out != nil {
				out[pos] = T(e >> 16)
			}
			pos++
			continue
		}
		length := int(e>>16) + int(v>>(e>>8&15))
		e = lookup(t.dist[:], distPrim, cur.Peek(15))
		if e&eBits == 0 {
			return fail("invalid distance code")
		}
		v = cur.Bits(uint(e & eBits))
		if e&eExc != 0 {
			return fail("invalid distance symbol")
		}
		if tail && cur.Overrun() {
			return fail("")
		}
		if out == nil {
			pos++
			continue
		}
		d := int(e>>16) + int(v>>(e>>8&15))
		if d > pos+reach {
			return fail("distance beyond available history")
		}
		low = min(low, pos-d)
		pos = expand(out, pos, d, length)
	}
	return pos, bit + cur.Consumed(), low, false, nil
}

// bulk is the kernel's fast loop. While at least bulkInMargin bytes of in lie
// ahead and pos ≤ end — the caller keeps end bulkOutMargin short of len(out) —
// nothing below decides a bound of its own: refills are one unconditional
// load, a literal is one store, extra bits are masked out of the buffer
// whether or not there are any, and a match is copied in whole steps. It
// stops before the first symbol it cannot finish — an eExc entry, a distance
// out cannot serve, a margin gone — and returns that symbol's bit position.
func bulk[T byte | uint16](t *tables, in []byte, bit int64, out []T, pos, end, reach int) (int, int64, int) {
	inLim, next, low := len(in)-bulkInMargin, int(bit>>3), 0
	if pos > end || next > inLim {
		return pos, bit, 0
	}
	ob, _ := any(out).([]byte)
	oc, _ := any(out).([]uint16)
	acc, nacc, next := refill(in, 0, 0, next)
	acc >>= bit & 7
	nacc -= uint(bit & 7)
	for pos <= end && next <= inLim {
		acc, nacc, next = refill(in, acc, nacc, next)
		e := t.lit[acc&(1<<litPrim-1)]
		if e&eLit != 0 {
			// Up to three primary-table literals on one refill, then top up
			// so the symbol that ended the run has its huffWorst.
			pos, acc, nacc = literal(out, pos, acc, nacc, e)
			if e = t.lit[acc&(1<<litPrim-1)]; e&eLit != 0 {
				pos, acc, nacc = literal(out, pos, acc, nacc, e)
				if e = t.lit[acc&(1<<litPrim-1)]; e&eLit != 0 {
					pos, acc, nacc = literal(out, pos, acc, nacc, e)
					continue
				}
			}
			acc, nacc, next = refill(in, acc, nacc, next)
		}
		if e&(eSub|eExc) != 0 {
			if e&eSub == 0 {
				break
			}
			e = t.lit[e>>16+uint32(acc>>litPrim)&(1<<(e>>8&15)-1)]
			if e&eLit != 0 {
				pos, acc, nacc = literal(out, pos, acc, nacc, e)
				continue
			}
			if e&eExc != 0 {
				break
			}
		}
		cost := uint(e & eBits)
		length := int(e>>16) + int(acc&(1<<cost-1)>>(e>>8&15))
		acc >>= cost
		nacc -= cost
		e = t.dist[acc&(1<<distPrim-1)]
		if e&eSub != 0 {
			e = t.dist[e>>16+uint32(acc>>distPrim)&(1<<(e>>8&15)-1)]
		}
		d := int(e>>16) + int(acc&(1<<(e&eBits)-1)>>(e>>8&15))
		if e&eExc != 0 || d > pos+reach {
			nacc += cost // back to the length symbol
			break
		}
		acc >>= e & eBits
		nacc -= uint(e & eBits)
		src, stop := pos-d, pos+length
		low = min(low, src)
		switch {
		case src < 0 || ob != nil && d < 8 && d > 1:
			expand(out, pos, d, length)
		case ob != nil && d == 1:
			for v := uint64(ob[src]) * 0x0101010101010101; pos < stop; pos += 16 {
				w := ob[pos : pos+16]
				binary.LittleEndian.PutUint64(w, v)
				binary.LittleEndian.PutUint64(w[8:], v)
			}
		case ob != nil:
			// d ≥ 8: each 8-byte load reads bytes final before its store.
			for ; pos < stop; src, pos = src+16, pos+16 {
				r, w := ob[src:src+16], ob[pos:pos+16]
				binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(r))
				binary.LittleEndian.PutUint64(w[8:], binary.LittleEndian.Uint64(r[8:]))
			}
		case d == 1:
			for v := oc[src]; pos < stop; pos += 8 {
				w := oc[pos : pos+8]
				w[0], w[1], w[2], w[3], w[4], w[5], w[6], w[7] = v, v, v, v, v, v, v, v
			}
		default:
			// One cell at a time in order, so any d ≥ 1 reads what it wrote.
			for ; pos < stop; src, pos = src+8, pos+8 {
				r, w := oc[src:src+8], oc[pos:pos+8]
				w[0] = r[0]
				w[1] = r[1]
				w[2] = r[2]
				w[3] = r[3]
				w[4] = r[4]
				w[5] = r[5]
				w[6] = r[6]
				w[7] = r[7]
			}
		}
		pos = stop
	}
	return pos, int64(next)*8 - int64(nacc), low
}

// expand copies the back-reference (d, length) to out[pos:], writing a marker
// for each source position before out[0] — cells only: byte output admits no
// such distance — and replicating what it has written when the two overlap.
func expand[T byte | uint16](out []T, pos, d, length int) int {
	src, end := pos-d, pos+length
	for ; src < 0 && pos < end; src, pos = src+1, pos+1 {
		out[pos] = T(markerBit | uint16(winSize+src))
	}
	for pos < end {
		pos += copy(out[pos:end], out[src:pos])
	}
	return end
}
