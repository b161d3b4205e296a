// Package huffman implements canonical, length-limited Huffman coding as used
// by Gompresso/Bit (paper §III-B1, §V-C).
//
// Code lengths are produced by the package-merge algorithm, which yields an
// optimal prefix code under a maximum codeword length constraint. Gompresso
// limits the codeword length (CWL) to 10 bits so that a full 2^CWL-entry
// decode table fits in the GPU's on-chip memory; the same limit is the
// default here. Codes are assigned canonically (by length, then symbol), so a
// tree is fully described by its code-length array — the representation
// stored in block headers.
//
// The bitstream convention matches DEFLATE: codes are emitted starting with
// their most-significant bit, into an LSB-first bit writer, which is achieved
// by bit-reversing each code once at table-build time.
package huffman

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sync"
)

// MaxCodeLen is the largest supported codeword length. Serialization packs
// one length per nibble, so 15 is the ceiling; Gompresso uses 10.
const MaxCodeLen = 15

// DefaultCWL is the paper's limited codeword length (§V-C: CWL = 10 bits,
// chosen so the 2^CWL-entry LUTs fit in on-chip memory).
const DefaultCWL = 10

var (
	// ErrEmptyAlphabet is returned when no symbol has a nonzero frequency.
	ErrEmptyAlphabet = errors.New("huffman: no symbols with nonzero frequency")
	// ErrBadLengths is returned when a code-length array violates the Kraft
	// inequality or exceeds the length limit.
	ErrBadLengths = errors.New("huffman: invalid code length array")
)

// BuildLengths computes optimal length-limited code lengths for the given
// symbol frequencies using package-merge. Symbols with zero frequency get
// length 0 (no code). maxLen must be in [1, MaxCodeLen] and large enough for
// the number of used symbols (2^maxLen ≥ used).
func BuildLengths(freqs []int64, maxLen int) ([]uint8, error) {
	lengths := make([]uint8, len(freqs))
	if err := BuildLengthsInto(lengths, freqs, maxLen); err != nil {
		return nil, err
	}
	return lengths, nil
}

type leaf struct {
	sym  int
	freq int64
}

// mergeScratch is package-merge's working storage, pooled so that a block
// encoder building two trees per block allocates nothing for them.
type mergeScratch struct {
	leaves  []leaf  // used symbols by (freq, sym)
	weights []int64 // two lists of item weights: the level below, this level
	isLeaf  []uint8 // per level, per item of its list: 1 leaf, 0 package
}

var mergePool = sync.Pool{New: func() any { return new(mergeScratch) }}

// BuildLengthsInto is BuildLengths into caller storage: lengths must be as
// long as freqs.
func BuildLengthsInto(lengths []uint8, freqs []int64, maxLen int) error {
	if maxLen < 1 || maxLen > MaxCodeLen {
		return fmt.Errorf("huffman: maxLen %d out of range", maxLen)
	}
	if len(lengths) != len(freqs) {
		return fmt.Errorf("huffman: %d lengths for %d frequencies", len(lengths), len(freqs))
	}
	sc := mergePool.Get().(*mergeScratch)
	defer mergePool.Put(sc)
	leaves := sc.leaves[:0]
	for s, f := range freqs {
		if f < 0 {
			return fmt.Errorf("huffman: negative frequency for symbol %d", s)
		}
		if f > 0 {
			leaves = append(leaves, leaf{s, f})
		}
	}
	sc.leaves = leaves
	clear(lengths)
	n := len(leaves)
	switch {
	case n == 0:
		return ErrEmptyAlphabet
	case n == 1:
		// A single symbol still needs one bit on the wire so the decoder can
		// count symbols.
		lengths[leaves[0].sym] = 1
		return nil
	case n > 1<<maxLen:
		return fmt.Errorf("huffman: %d symbols cannot fit in %d-bit codes", n, maxLen)
	}
	slices.SortFunc(leaves, func(a, b leaf) int {
		if c := cmp.Compare(a.freq, b.freq); c != 0 {
			return c
		}
		return a.sym - b.sym
	})

	// Package-merge. A level's list is the sorted leaves merged with the
	// packages (consecutive pairs) of the level below, by weight, leaves first
	// on ties, which keeps shorter codes on earlier symbols; a leaf's code
	// length is the number of times it occurs, packages expanded, in the first
	// 2n-2 items of the top list. Both inputs are sorted, so the leaves in any
	// prefix of a list are a prefix of the leaves: recording which items are
	// leaves is enough to count occurrences top-down, and no item needs the
	// multiset of leaves under it. Lists stay shorter than 2n.
	stride := 2 * n
	sc.weights = slices.Grow(sc.weights[:0], 2*stride)[:2*stride]
	sc.isLeaf = slices.Grow(sc.isLeaf[:0], maxLen*stride)[:maxLen*stride]
	below, cur := sc.weights[:0:stride], sc.weights[stride:stride]
	for level := 0; level < maxLen; level++ {
		isLeaf := sc.isLeaf[level*stride : (level+1)*stride]
		cur = cur[:0]
		for li, pi := 0, 0; li < n || pi+1 < len(below); {
			if pi+1 >= len(below) || (li < n && leaves[li].freq <= below[pi]+below[pi+1]) {
				isLeaf[len(cur)] = 1
				cur = append(cur, leaves[li].freq)
				li++
			} else {
				isLeaf[len(cur)] = 0
				cur = append(cur, below[pi]+below[pi+1])
				pi += 2
			}
		}
		below, cur = cur, below
	}
	take := 2*n - 2
	if take > len(below) {
		return fmt.Errorf("huffman: internal: package-merge produced %d items, need %d", len(below), take)
	}
	for level := maxLen - 1; level >= 0 && take > 0; level-- {
		k := 0
		for _, f := range sc.isLeaf[level*stride:][:take] {
			k += int(f)
		}
		for _, lf := range leaves[:k] {
			lengths[lf.sym]++
		}
		take = 2 * (take - k) // the packages among them, as items of the level below
	}
	for _, lf := range leaves {
		if l := lengths[lf.sym]; l < 1 || int(l) > maxLen {
			return fmt.Errorf("huffman: internal: symbol %d got length %d", lf.sym, l)
		}
	}
	return nil
}

// ValidateLengths checks that a code-length array describes a complete or
// under-full prefix code with all lengths ≤ maxLen. A complete code has
// Kraft sum exactly 1; a single-symbol code (one length-1 entry) is also
// accepted, matching BuildLengths.
func ValidateLengths(lengths []uint8, maxLen int) error {
	var kraft uint64 // in units of 2^-maxLen
	used := 0
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		if int(l) > maxLen {
			return fmt.Errorf("%w: symbol %d has length %d > max %d", ErrBadLengths, s, l, maxLen)
		}
		used++
		kraft += 1 << (maxLen - int(l))
	}
	if used == 0 {
		return ErrEmptyAlphabet
	}
	full := uint64(1) << maxLen
	if used == 1 {
		return nil // degenerate single-symbol code
	}
	if kraft != full {
		return fmt.Errorf("%w: Kraft sum %d/%d", ErrBadLengths, kraft, full)
	}
	return nil
}

// Code is a canonical Huffman codeword prepared for an LSB-first bitstream:
// Bits holds the bit-reversed codeword so it can be written directly with
// bitio.Writer.WriteBits. A zero Len means the symbol is not part of the
// tree.
type Code struct {
	Bits uint16
	Len  uint8
}

// reverseBits reverses the low n ≥ 1 bits of v.
func reverseBits(v uint16, n uint8) uint16 { return bits.Reverse16(v) >> (16 - n) }

// CanonicalCodes assigns canonical codes (increasing by length, then symbol)
// for a code-length array and returns them pre-reversed for LSB-first output.
func CanonicalCodes(lengths []uint8, maxLen int) ([]Code, error) {
	return FillCodes(nil, lengths, maxLen)
}

// FillCodes is CanonicalCodes reusing codes' storage when it is large enough.
func FillCodes(codes []Code, lengths []uint8, maxLen int) ([]Code, error) {
	if err := ValidateLengths(lengths, maxLen); err != nil {
		return nil, err
	}
	var lenCount [MaxCodeLen + 1]int
	for _, l := range lengths {
		lenCount[l]++
	}
	// RFC 1951 canonical construction: codes of each length start where the
	// previous length's codes ended, shifted left one bit.
	lenCount[0] = 0
	var nextCode [MaxCodeLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= maxLen; l++ {
		code = (code + uint32(lenCount[l-1])) << 1
		nextCode[l] = code
	}
	if cap(codes) < len(lengths) {
		codes = make([]Code, len(lengths))
	}
	codes = codes[:len(lengths)]
	clear(codes)
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		c := nextCode[l]
		nextCode[l]++
		if c >= 1<<l {
			return nil, fmt.Errorf("%w: canonical overflow at symbol %d", ErrBadLengths, s)
		}
		codes[s] = Code{Bits: reverseBits(uint16(c), l), Len: l}
	}
	return codes, nil
}
