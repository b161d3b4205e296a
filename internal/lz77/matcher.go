package lz77

import (
	"encoding/binary"
	"math/bits"
)

// A hasher hashes the MinMatch (3 or 4) bytes at the low end of a
// little-endian word: Fibonacci hashing, the three-byte form shifting the
// fourth byte out first.
type hasher struct {
	shift uint
	mul   uint32
}

func newHasher(minMatch int) hasher {
	if minMatch >= 4 {
		return hasher{0, 2654435761}
	}
	return hasher{8, 506832829}
}

func (h hasher) hash(v uint32, bits uint) uint32 { return ((v << h.shift) * h.mul) >> (32 - bits) }

func load32(src []byte, pos int) uint32 { return binary.LittleEndian.Uint32(src[pos:]) }

// matchLen counts equal bytes between src[a:] and src[b:], up to max, and
// not past len(src). a < b; reading src[a+i] for i < max requires only that
// a+i < len(src), which allows overlapping matches (a+max may exceed b).
//
// The hot loop compares eight bytes per iteration and locates the first
// difference with a single trailing-zero count of the XOR, falling back to
// byte compares only for the tail where an 8-byte load would run past the
// slice.
func matchLen(src []byte, a, b, max int) int {
	if max > len(src)-b {
		max = len(src) - b
	}
	n := 0
	for n+8 <= max {
		x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:])
		if x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
		n += 8
	}
	for n < max && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// singleMatcher is the LZ4-style single-entry hash table with the paper's
// "minimal staleness" replacement policy (§IV-B): an entry is replaced by a
// more recent occurrence only once it is more than Staleness bytes behind the
// cursor. Keeping entries old makes them more likely to fall below the warp
// high-water mark, which is what lets the DE parse keep finding matches.
type singleMatcher struct {
	opts     Options
	hasher   hasher
	hashBits uint
	table    []int32
}

func newSingleMatcher(opts Options) *singleMatcher {
	m := &singleMatcher{opts: opts, hasher: newHasher(opts.MinMatch), hashBits: 14}
	m.table = make([]int32, 1<<m.hashBits)
	for i := range m.table {
		m.table[i] = -1
	}
	return m
}

func (m *singleMatcher) hash(src []byte, pos int) uint32 {
	return m.hasher.hash(load32(src, pos), m.hashBits)
}

func (m *singleMatcher) insert(src []byte, pos int) {
	if pos+m.opts.MinMatch > len(src) || pos+4 > len(src) {
		return
	}
	h := m.hash(src, pos)
	old := m.table[h]
	if old < 0 || pos-int(old) > m.opts.Staleness {
		m.table[h] = int32(pos)
	}
}

func (m *singleMatcher) find(src []byte, pos, srcEndLimit, maxLen int) (int, int) {
	if pos+m.opts.MinMatch > len(src) || pos+4 > len(src) {
		return 0, 0
	}
	if maxLen > len(src)-pos {
		maxLen = len(src) - pos
	}
	if maxLen < m.opts.MinMatch {
		return 0, 0
	}
	cand := m.table[m.hash(src, pos)]
	if cand < 0 {
		return 0, 0
	}
	c := int(cand)
	if c >= pos || pos-c > m.opts.Window {
		return 0, 0
	}
	max := maxLen
	if c+max > srcEndLimit {
		max = srcEndLimit - c
	}
	if max < m.opts.MinMatch {
		return 0, 0
	}
	l := matchLen(src, c, pos, max)
	if l < m.opts.MinMatch {
		return 0, 0
	}
	return pos - c, l
}
