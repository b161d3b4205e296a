package lz77

import "encoding/binary"

// CopyWithin expands the back-reference (offset, length) at position pos of
// dst: it copies dst[pos-offset : pos-offset+length] to dst[pos : pos+length],
// replicating bytes the copy itself produces when the intervals overlap
// (offset < length), and returns the new position pos+length.
//
// The caller guarantees 0 < offset ≤ pos and pos+length ≤ len(dst). Writes
// never go past pos+length except for the wild-copy fast path, which may
// scribble up to 7 bytes into dst[pos+length:] when that slack exists inside
// dst — bytes a valid stream overwrites with its next sequences. Writes never
// leave dst, so dst may be an exactly-sized block region inside a larger
// shared output buffer (adjacent block regions can be written concurrently).
func CopyWithin(dst []byte, pos, offset, length int) int {
	src := pos - offset
	end := pos + length
	if offset >= 8 && end+8 <= len(dst) {
		// Wild copy: 8-byte chunks, no memmove call. offset ≥ 8 means every
		// load reads bytes finalized before this chunk's store; matches are
		// short (the parser's lookahead caps them at 64 bytes by default), so
		// call overhead would dominate a memmove.
		for p := pos; p < end; p += 8 {
			binary.LittleEndian.PutUint64(dst[p:], binary.LittleEndian.Uint64(dst[src:]))
			src += 8
		}
		return end
	}
	if offset >= length {
		// Disjoint intervals: one memmove.
		copy(dst[pos:end], dst[src:src+length])
		return end
	}
	if offset == 1 {
		// Run-length case: splat one byte.
		b := dst[src]
		tail := dst[pos:end]
		for i := range tail {
			tail[i] = b
		}
		return end
	}
	// Overlapping copy with widening stride: each pass copies everything
	// written so far, doubling the stride (offset, 2·offset, 4·offset, …), so
	// the loop runs O(log(length/offset)) memmoves instead of `length`
	// byte stores.
	for pos < end {
		pos += copy(dst[pos:end], dst[src:pos])
	}
	return end
}
