package lz77

import "math"

// The oracle is the parser this package shipped before the insertion-cursor
// rewrite, kept as the differential reference: a hash-chain matcher with a
// prev table as long as the block and eager insertion, which reaches the
// eligible candidates by walking past the ineligible ones without counting
// them. (The 16×MaxChain walk cap it carried is gone: it was the
// degenerate-chain bug, and without it the two parsers must agree token for
// token on every input.)

// An oracleMatcher finds the longest match for src[pos:] whose source
// interval lies within [pos-window, srcEndLimit) — the pre-rewrite matcher
// interface, which *singleMatcher still satisfies.
type oracleMatcher interface {
	insert(src []byte, pos int)
	find(src []byte, pos, srcEndLimit, maxLen int) (offset, length int)
}

type oracleChain struct {
	opts Options
	head []int32
	prev []int32
}

func newOracleChain(opts Options, srcLen int) *oracleChain {
	m := &oracleChain{opts: opts, head: make([]int32, 1<<15), prev: make([]int32, srcLen)}
	for i := range m.head {
		m.head[i] = -1
	}
	return m
}

func (m *oracleChain) hash(src []byte, pos int) uint32 {
	if m.opts.MinMatch >= 4 {
		v := uint32(src[pos]) | uint32(src[pos+1])<<8 | uint32(src[pos+2])<<16 | uint32(src[pos+3])<<24
		return (v * 2654435761) >> 17
	}
	v := uint32(src[pos]) | uint32(src[pos+1])<<8 | uint32(src[pos+2])<<16
	return ((v << 8) * 506832829) >> 17
}

func (m *oracleChain) insert(src []byte, pos int) {
	if pos+m.opts.MinMatch > len(src) || pos+4 > len(src) {
		return
	}
	h := m.hash(src, pos)
	m.prev[pos] = m.head[h]
	m.head[h] = int32(pos)
}

func (m *oracleChain) find(src []byte, pos, srcEndLimit, maxLen int) (int, int) {
	if pos+m.opts.MinMatch > len(src) || pos+4 > len(src) {
		return 0, 0
	}
	if maxLen > len(src)-pos {
		maxLen = len(src) - pos
	}
	if maxLen < m.opts.MinMatch {
		return 0, 0
	}
	lo := pos - m.opts.Window
	if lo < 0 {
		lo = 0
	}
	bestLen, bestOff := 0, 0
	cand := m.head[m.hash(src, pos)]
	// Candidates above the source-end limit (recent positions the DE rule
	// forbids) are walked past without counting against the chain depth.
	for depth := 0; depth < m.opts.MaxChain && cand >= 0; {
		c := int(cand)
		if c < lo {
			break
		}
		max := maxLen
		if c+max > srcEndLimit {
			max = srcEndLimit - c
		}
		if max >= m.opts.MinMatch {
			depth++
			l := 0
			for l < max && src[c+l] == src[pos+l] {
				l++
			}
			if l >= m.opts.MinMatch && l > bestLen {
				bestLen, bestOff = l, pos-c
			}
		}
		cand = m.prev[c]
	}
	return bestOff, bestLen
}

func newOracleMatcher(opts Options, srcLen int) oracleMatcher {
	if opts.Staleness > 0 {
		return newSingleMatcher(opts)
	}
	return newOracleChain(opts, srcLen)
}

// oracleParse is the pre-rewrite Parse: the same greedy and DE loops, with
// every position inserted as the cursor passes it.
func oracleParse(src []byte, opts Options) *TokenStream {
	opts = opts.withDefaults()
	ts := &TokenStream{RawLen: len(src)}
	m := newOracleMatcher(opts, len(src))
	pos, litStart := 0, 0
	closeSeq := func(l, off int) {
		ts.Literals = append(ts.Literals, src[litStart:pos]...)
		ts.Seqs = append(ts.Seqs, Seq{LitLen: uint32(pos - litStart), MatchLen: uint32(l), Offset: uint32(off)})
		for end := pos + l; pos < end; pos++ {
			m.insert(src, pos)
		}
		litStart = pos
	}
	for pos < len(src) {
		if opts.DE == DEOff {
			if off, l := m.find(src, pos, math.MaxInt32, opts.MaxMatch); l >= opts.MinMatch {
				closeSeq(l, off)
				continue
			}
			m.insert(src, pos)
			pos++
			continue
		}
		availEnd := pos // the warp high-water mark
		frozen := opts.DE != DELit
		for s := 0; s < opts.GroupSize && pos < len(src); {
			if !frozen {
				availEnd = pos
			}
			if off, l := m.find(src, pos, availEnd, opts.MaxMatch); l >= opts.MinMatch {
				closeSeq(l, off)
				frozen = true
				s++
				continue
			}
			m.insert(src, pos)
			pos++
			if pos-litStart >= opts.MaxLitRun {
				closeSeq(0, 0)
				s++
			}
		}
	}
	if litStart < len(src) || len(ts.Seqs) == 0 {
		closeSeq(0, 0)
	}
	return ts
}
