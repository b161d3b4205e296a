package deflate

import "encoding/binary"

// Candidate discovery: the scanner walks the compressed stream at chunk
// granularity looking for bit positions that start a DEFLATE block. A
// position is only a *candidate* — the decode pipeline verifies that the
// preceding chunk's decode lands exactly on it, and falls back to
// sequential decoding when it does not — so the probe's job is to make
// false positives rare, not impossible:
//
//  1. A cheap per-bit filter accepts only non-final blocks (a chunk that
//     started at a member's last block would hold that block alone, and
//     one bit test spares half of all positions the rest of the filter):
//     dynamic headers whose counts are in range and whose code-length code
//     satisfies the Kraft equality (the same completeness rule the decoder
//     enforces), plus stored blocks whose LEN/NLEN complement checks out.
//  2. Survivors are verified by parsing the full header (both trees must
//     build) and trial-decoding several hundred symbols across block
//     boundaries; stored candidates must chain into further verifiable
//     blocks, since 16 bits of LEN/NLEN alone are too weak an anchor.
//
// Fixed-Huffman blocks are never primary anchors (3 header bits filter
// nothing; trial-decoding every third bit position would dominate the scan)
// but chains may pass through them. Regions where no candidate verifies —
// fixed-only stretches, pathological content — simply extend the current
// chunk while the scanner keeps probing ahead; correctness never depends
// on the probe.

const (
	trialSymbols = 512 // trial-decode budget per verification
	trialBlocks  = 8   // chain-follow budget per verification
)

// bitsAt returns the n (≤ 57) bits at absolute bit offset `bit`, zero-
// padded past the end of data.
func bitsAt(data []byte, bit int64, n uint) uint64 {
	i := int(bit >> 3)
	sh := uint(bit & 7)
	if i+8 <= len(data) {
		return binary.LittleEndian.Uint64(data[i:]) >> sh & (1<<n - 1)
	}
	var w uint64
	for k := 0; i+k < len(data) && k < 8; k++ {
		w |= uint64(data[i+k]) << (8 * uint(k))
	}
	return w >> sh & (1<<n - 1)
}

// findCandidate returns the first verified block-start bit offset at or
// after byte offset fromByte, scanning at most span bytes; -1 if none.
func findCandidate(data []byte, fromByte, span int, t *tables) int64 {
	end := fromByte + span
	if end > len(data) {
		end = len(data)
	}
	for p := fromByte; p < end; p++ {
		w := bitsAt(data, int64(p)*8, 57)
		for sub := uint(0); sub < 8; sub++ {
			b := int64(p)*8 + int64(sub)
			if w>>sub&1 != 0 { // BFINAL
				continue
			}
			switch (w >> (sub + 1)) & 3 {
			case 2:
				if quickDynamic(data, b, w>>sub) && verifyCandidate(data, b, t) {
					return b
				}
			case 0:
				if quickStored(data, b) && verifyCandidate(data, b, t) {
					return b
				}
			}
		}
	}
	return -1
}

// quickDynamic applies the cheap dynamic-header filter at bit b. v holds
// the stream's bits starting at b (≥ 17 valid bits).
func quickDynamic(data []byte, b int64, v uint64) bool {
	if (v>>3)&31 > 29 || (v>>8)&31 > 29 { // HLIT, HDIST
		return false
	}
	ncl := int((v>>13)&15) + 4
	lens := bitsAt(data, b+17, uint(3*ncl))
	// The code-length code must be complete (Kraft sum exactly one) or a
	// degenerate single code of length 1 — mirroring buildTab exactly.
	kraft, used, last := 0, 0, 0
	for i := 0; i < ncl; i++ {
		l := int(lens & 7)
		lens >>= 3
		if l == 0 {
			continue
		}
		used++
		last = l
		kraft += 128 >> l
		if kraft > 128 {
			return false
		}
	}
	if used == 0 {
		return false
	}
	if used == 1 {
		return last == 1
	}
	return kraft == 128
}

// quickStored checks a stored block header at bit b: the LEN/NLEN
// complement, payload bounds, and zero alignment padding. The RFC leaves
// the padding bits unspecified but every real encoder writes zeros, and
// requiring them cuts the false-positive rate by another ~2^4 — a missed
// nonzero-padding block merely costs the probe a candidate, never
// correctness.
func quickStored(data []byte, b int64) bool {
	off := (b + 3 + 7) >> 3
	if off+4 > int64(len(data)) {
		return false
	}
	if pad := uint(off*8 - (b + 3)); pad > 0 && bitsAt(data, b+3, pad) != 0 {
		return false
	}
	n := int(data[off]) | int(data[off+1])<<8
	inv := int(data[off+2]) | int(data[off+3])<<8
	return n == ^inv&0xffff && off+4+int64(n) <= int64(len(data))
}

// verifyCandidate deep-verifies a candidate block start: it follows the
// block chain from bit, fully parsing headers and trial-decoding symbols,
// and accepts once the evidence is strong enough that a false positive is
// vanishingly unlikely.
func verifyCandidate(data []byte, bit int64, t *tables) bool {
	syms, storedLinks := 0, 0
	weakOK := func() bool {
		return storedLinks >= 2 || (storedLinks >= 1 && syms >= 128)
	}
	for blocks := 0; blocks < trialBlocks && syms < trialSymbols; blocks++ {
		h, err := readBlockHeader(data, bit, t)
		if err != nil {
			return false
		}
		switch h.kind {
		case 0:
			storedLinks++
			bit = h.bit + int64(h.storedLen)*8
		default:
			// No output: the careful loop counts the symbols it could decode.
			n, end, _, done, err := careful[byte](h.tabs, data, h.bit, nil, 0, trialSymbols-syms, 0)
			if err != nil {
				return false
			}
			syms += n
			if h.kind == 2 {
				// A fully-validated dynamic header plus a clean partial
				// decode is decisive.
				return true
			}
			if !done { // trial budget exhausted inside a fixed block
				return storedLinks >= 1
			}
			syms++ // the end-of-block code
			bit = end
		}
		if h.final {
			// A chain ending at end-of-stream still needs the accumulated
			// evidence: a lone final stored block is only a 16-bit check,
			// far too weak over millions of scanned positions.
			return weakOK()
		}
		if weakOK() {
			return true
		}
	}
	return weakOK()
}
