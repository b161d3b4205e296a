// Package deflate decodes foreign DEFLATE streams (RFC 1951) and their
// gzip (RFC 1952) and zlib (RFC 1950) framings — the formats carrying the
// overwhelming majority of compressed data in the wild. The paper's
// container is block-parallel by construction; DEFLATE is not, so this
// package recovers parallelism the way rapidgzip does (Knespel & Brunst,
// 2023): a scanner discovers candidate deflate block boundaries inside the
// compressed stream, workers decode the chunks between candidates
// speculatively — representing bytes they cannot know (back-references into
// the unseen 32 KiB window before the chunk) as 16-bit markers — and an
// in-order resolution stage patches the markers once the preceding output
// exists, verifying that each speculative chunk splices exactly onto the
// decoded stream and falling back to sequential decoding when it does not.
//
// Both routes run one decode kernel (inflate.go) over two-level tables whose
// entries follow internal/format's convention — the low six bits are a
// symbol's whole bit cost — but not its layout: the alphabets differ. Header
// parsing and the careful loop run on bitio.Cursor, and chunk scheduling uses
// parallel.Ordered on the shared worker pool.
package deflate

import (
	"errors"
	"fmt"
)

// Format selects the framing around the raw DEFLATE stream.
type Format uint8

const (
	// FormatGzip is RFC 1952: a member header, a deflate stream, and a
	// CRC-32 + size footer; multiple members may be concatenated.
	FormatGzip Format = iota
	// FormatZlib is RFC 1950: a two-byte header, a deflate stream, and an
	// Adler-32 footer.
	FormatZlib
	// FormatRaw is a bare RFC 1951 deflate stream with no framing.
	FormatRaw
)

func (f Format) String() string {
	switch f {
	case FormatGzip:
		return "gzip"
	case FormatZlib:
		return "zlib"
	case FormatRaw:
		return "deflate"
	default:
		return fmt.Sprintf("Format(%d)", uint8(f))
	}
}

// Error kinds. Every decode failure is an *Error wrapping one of these, so
// callers can classify with errors.Is while still reading the exact input
// byte offset from the *Error.
var (
	// ErrCorrupt reports structurally invalid compressed data.
	ErrCorrupt = errors.New("deflate: corrupt stream")
	// ErrTruncated reports input that ends mid-stream.
	ErrTruncated = errors.New("deflate: truncated stream")
	// ErrChecksum reports a CRC-32, Adler-32, or size-field mismatch.
	ErrChecksum = errors.New("deflate: checksum mismatch")
	// ErrHeader reports an invalid gzip or zlib framing header.
	ErrHeader = errors.New("deflate: invalid header")
	// ErrDictionary reports a zlib stream requiring a preset dictionary,
	// which this package does not support.
	ErrDictionary = errors.New("deflate: preset dictionary not supported")
)

// Error is a decode failure pinned to a byte offset of the compressed
// input. Off is where the problem was detected: the byte holding the
// offending bits for corruption, the input length for truncation, and the
// footer position for checksum mismatches.
type Error struct {
	Off  int64
	Kind error
	Msg  string
}

func (e *Error) Error() string {
	return fmt.Sprintf("%v at input byte %d: %s", e.Kind, e.Off, e.Msg)
}

// Unwrap lets errors.Is match the Kind sentinels.
func (e *Error) Unwrap() error { return e.Kind }

func corruptAt(off int64, msg string) error {
	return &Error{Off: off, Kind: ErrCorrupt, Msg: msg}
}

func truncatedAt(off int64, msg string) error {
	return &Error{Off: off, Kind: ErrTruncated, Msg: msg}
}

const (
	winSize  = 32768 // DEFLATE window: the maximum back-reference distance
	maxMatch = 258   // maximum match length
	endBlock = 256   // litlen symbol terminating a block
	// maxLitLen/maxDist are the valid symbol counts; the fixed trees define
	// codes beyond them (286-287, 30-31) whose appearance is an error.
	maxLitLen = 286
	maxDist   = 30
)

// Length codes 257-285 (index 0-28): base length and extra bits (RFC 1951
// §3.2.5). Code 284 + 31 extra also reaches 258; both encodings are valid.
var (
	lengthBase = [29]uint16{
		3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 15, 17, 19, 23, 27, 31,
		35, 43, 51, 59, 67, 83, 99, 115, 131, 163, 195, 227, 258,
	}
	lengthExtra = [29]uint8{
		0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2,
		3, 3, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 0,
	}
	distBase = [30]uint32{
		1, 2, 3, 4, 5, 7, 9, 13, 17, 25, 33, 49, 65, 97, 129, 193,
		257, 385, 513, 769, 1025, 1537, 2049, 3073, 4097, 6145,
		8193, 12289, 16385, 24577,
	}
	distExtra = [30]uint8{
		0, 0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6,
		7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12, 13, 13,
	}
	// codeOrder is the transmission order of the code-length code's
	// lengths in a dynamic block header (RFC 1951 §3.2.7).
	codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}
)
