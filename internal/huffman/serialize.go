package huffman

import (
	"fmt"
)

// Canonical trees are stored as their code-length arrays, one nibble per
// symbol (lengths ≤ 15). The alphabet size is fixed by context (literal/length
// tree vs. offset tree), so no count prefix is needed. This is the
// "canonical representation" the paper stores per block (Fig. 3); at
// Gompresso block sizes the header overhead is negligible (§V-C).

// AppendLengths serializes a code-length array onto dst, two lengths per
// byte (low nibble first).
func AppendLengths(dst []byte, lengths []uint8) []byte {
	for i := 0; i < len(lengths); i += 2 {
		b := lengths[i] & 0x0f
		if i+1 < len(lengths) {
			b |= (lengths[i+1] & 0x0f) << 4
		}
		dst = append(dst, b)
	}
	return dst
}

// LengthsSize reports the serialized size in bytes of an n-symbol tree.
func LengthsSize(n int) int { return (n + 1) / 2 }

// ParseLengths reads an n-symbol code-length array from src into dst, which
// is reused when it has the capacity, returning the lengths and the
// remaining bytes.
func ParseLengths(dst []uint8, src []byte, n int) ([]uint8, []byte, error) {
	need := LengthsSize(n)
	if len(src) < need {
		return nil, nil, fmt.Errorf("huffman: tree truncated: need %d bytes, have %d", need, len(src))
	}
	if cap(dst) < n {
		dst = make([]uint8, n)
	}
	dst = dst[:n]
	for i := range dst {
		b := src[i/2]
		if i%2 == 0 {
			dst[i] = b & 0x0f
		} else {
			dst[i] = b >> 4
		}
	}
	return dst, src[need:], nil
}
