package lz77

import (
	"bytes"
	"math"
	"math/bits"
	"slices"
	"sync"
)

const chainHashBits = 15

// Parser is the reusable state of the block parser: the hash-chain tables
// and the token buffers, so that a worker compressing block after block
// allocates none of them again. The zero value is ready to use; a Parser is
// not safe for concurrent use.
//
// The chain matcher is zlib's head/prev scheme with deferred insertion. A
// match's source interval must end at or before a limit — the block end for
// the greedy parse, the warp high-water mark for the DE parse (paper Fig. 7,
// find_match_below_hwm) — so position q can serve as a candidate only once
// q+MinMatch ≤ limit. Instead of inserting every position as the cursor
// passes it and skipping the too-recent ones on every walk, find inserts
// positions only up to that bound. The limit never moves backwards (DEOff:
// constant; DEStrict: the position where each group starts; DELit: the
// cursor until the group's first match, then fixed, and the next group starts
// at or past it), so one insertion cursor suffices, every chain holds eligible
// candidates only, newest first, and MaxChain bounds the walk with nothing
// to skip.
type Parser struct {
	src  []byte
	opts Options

	// head[h] is the newest inserted position hashing to h, -1 if none.
	// prev is a ring of at least Window entries: prev[q&mask] is the
	// position inserted before q in q's bucket. The ring is never cleared,
	// not even between blocks: head is reset per block, so every walk starts
	// at a position of this block and follows links written by positions of
	// this block, and it stops at the first candidate more than Window
	// behind — while q's slot is only reused by q+len(prev) ≥ q+Window,
	// which is inserted after q has left every window that could reach it.
	head    [1 << chainHashBits]int32
	prev    []int32
	next    int // insertion cursor: hashable positions below it are in the dictionary
	hashEnd int // positions at or past it are too near the block end to hash or match

	single *singleMatcher // replaces the chains while Options.Staleness > 0

	ts TokenStream
}

var parserPool = sync.Pool{New: func() any { return new(Parser) }}

// Parse compresses one block into a token stream. With opts.DE == DEOff this
// is a conventional greedy LZ77 parse; otherwise it runs the
// Dependency-Elimination parse of paper Fig. 7. The stream is the caller's.
func Parse(src []byte, opts Options) (*TokenStream, error) {
	p := parserPool.Get().(*Parser)
	defer parserPool.Put(p)
	ts, err := p.Parse(src, opts)
	if err != nil {
		return nil, err
	}
	return &TokenStream{Literals: bytes.Clone(ts.Literals), Seqs: slices.Clone(ts.Seqs), RawLen: ts.RawLen}, nil
}

// Parse is the package-level Parse into p's own buffers: the returned stream
// is valid until the next call.
func (p *Parser) Parse(src []byte, opts Options) (*TokenStream, error) {
	opts = opts.withDefaults()
	if err := opts.validate(); err != nil {
		return nil, err
	}
	p.src, p.opts = src, opts
	p.next = 0
	p.hashEnd = len(src) - max(opts.MinMatch, 4) + 1
	p.ts = TokenStream{Literals: p.ts.Literals[:0], Seqs: p.ts.Seqs[:0], RawLen: len(src)}
	if opts.Staleness > 0 {
		p.single = newSingleMatcher(opts)
	} else {
		for i := range p.head {
			p.head[i] = -1
		}
		ring := 1 << bits.Len(uint(opts.Window-1))
		if cap(p.prev) < ring {
			p.prev = make([]int32, ring)
		}
		p.prev = p.prev[:ring]
	}
	if opts.DE != DEOff {
		p.parseDE()
	} else {
		p.parseGreedy()
	}
	p.src, p.single = nil, nil // a pooled Parser must not pin the caller's block
	return &p.ts, nil
}

// find returns the longest match (offset, length) for src[pos:] whose source
// interval lies within [pos-Window, limit), or length 0 if none reaches
// MinMatch. Successive calls must not decrease pos or limit.
func (p *Parser) find(pos, limit int) (offset, length int) {
	if p.single != nil {
		for ; p.next < pos; p.next++ {
			p.single.insert(p.src, p.next)
		}
		return p.single.find(p.src, pos, limit, p.opts.MaxMatch)
	}
	if pos >= p.hashEnd {
		return 0, 0
	}
	src, prev := p.src, p.prev
	mask := len(prev) - 1
	minMatch := p.opts.MinMatch
	h := newHasher(minMatch)

	if end := min(pos, limit-minMatch+1); end > p.next {
		for q := p.next; q < end; q++ {
			b := h.hash(load32(src, q), chainHashBits)
			prev[q&mask] = p.head[b]
			p.head[b] = int32(q)
		}
		p.next = end
	}

	maxLen := min(p.opts.MaxMatch, len(src)-pos)
	lo := max(pos-p.opts.Window, 0)
	cand := int(p.head[h.hash(load32(src, pos), chainHashBits)])
	for depth := p.opts.MaxChain; depth > 0 && cand >= lo; depth-- {
		// Cap the length so the source interval ends within the limit.
		n := min(maxLen, limit-cand)
		// zlib's quick reject: a longer match must agree at the byte the
		// best one stopped on.
		if n > length && src[cand+length] == src[pos+length] {
			if l := matchLen(src, cand, pos, n); l > length && l >= minMatch {
				offset, length = pos-cand, l
				if l == maxLen {
					break
				}
			}
		}
		cand = int(prev[cand&mask])
	}
	return offset, length
}

// emit closes a sequence: the literals src[litStart:pos] and a match of
// matchLen bytes at distance offset (0, 0 for a literal-only sequence).
func (p *Parser) emit(litStart, pos, matchLen, offset int) {
	p.ts.Literals = append(p.ts.Literals, p.src[litStart:pos]...)
	p.ts.Seqs = append(p.ts.Seqs, Seq{
		LitLen:   uint32(pos - litStart),
		MatchLen: uint32(matchLen),
		Offset:   uint32(offset),
	})
}

// parseGreedy is the unrestricted parse: matches may reference any window
// position, including overlapping the match's own output (offset < length).
func (p *Parser) parseGreedy() {
	pos, litStart := 0, 0
	for pos < len(p.src) {
		off, l := p.find(pos, math.MaxInt32)
		if l == 0 {
			pos++
			continue
		}
		p.emit(litStart, pos, l, off)
		pos += l
		litStart = pos
	}
	if litStart < len(p.src) || len(p.ts.Seqs) == 0 {
		p.emit(litStart, len(p.src), 0, 0)
	}
}

// parseDE is the modified compressor of paper Fig. 7. For each group of
// GroupSize sequences it fixes warpHWM to the input position completed
// before the group started and only accepts matches whose source interval is
// fully available to the decompressing warp in its single back-reference
// round:
//
//   - DEStrict: source end ≤ warpHWM (the paper's rule), or
//   - DELit: additionally, source end within the gapless run of literal
//     bytes at the start of the current group (those are written in the
//     literal phase before back-references resolve).
//
// Because no match can exist below warpHWM at a block start, a literal run is
// force-closed as a null-match sequence after MaxLitRun bytes so the group
// makes progress (the paper's pseudocode leaves this case implicit).
func (p *Parser) parseDE() {
	pos, litStart := 0, 0
	for pos < len(p.src) {
		// availEnd is the input position below which every byte is available
		// during the group's back-reference round: warpHWM, except that for
		// DELit it tracks the cursor until the group's first match freezes it.
		availEnd := pos
		frozen := p.opts.DE != DELit
		for s := 0; s < p.opts.GroupSize && pos < len(p.src); {
			if !frozen {
				availEnd = pos
			}
			if off, l := p.find(pos, availEnd); l > 0 {
				p.emit(litStart, pos, l, off)
				frozen = true
				pos += l
				litStart = pos
				s++
				continue
			}
			pos++
			if pos-litStart >= p.opts.MaxLitRun {
				// Force-close so the group (and block starts, where no match
				// below HWM can exist) terminates.
				p.emit(litStart, pos, 0, 0)
				litStart = pos
				s++
			}
		}
	}
	if litStart < len(p.src) || len(p.ts.Seqs) == 0 {
		p.emit(litStart, len(p.src), 0, 0)
	}
}
