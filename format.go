package gompresso

import (
	"errors"
	"fmt"

	"gompresso/internal/deflate"
	"gompresso/internal/format"
)

// Format identifies a compressed input's container format. The codec
// serves the native Gompresso container and — per the rapidgzip-style
// two-pass pipeline in internal/deflate — the foreign formats carrying
// most real-world compressed traffic: gzip, zlib, and raw DEFLATE.
type Format int

const (
	// FormatAuto sniffs the format from the input's magic bytes: the
	// Gompresso container, gzip, and zlib are recognized; raw DEFLATE has
	// no magic and must be selected explicitly.
	FormatAuto Format = iota
	// FormatGompresso is the native container (paper Fig. 3).
	FormatGompresso
	// FormatGzip is RFC 1952 (.gz), including multi-member files.
	FormatGzip
	// FormatZlib is RFC 1950.
	FormatZlib
	// FormatDeflate is a bare RFC 1951 stream with no framing.
	FormatDeflate
)

func (f Format) String() string {
	switch f {
	case FormatAuto:
		return "auto"
	case FormatGompresso:
		return "gompresso"
	case FormatGzip:
		return "gzip"
	case FormatZlib:
		return "zlib"
	case FormatDeflate:
		return "deflate"
	default:
		return fmt.Sprintf("Format(%d)", int(f))
	}
}

// ErrUnknownFormat reports input whose magic bytes match no supported
// format. The concrete error is an *UnknownFormatError carrying the bytes
// that failed to match; test with errors.Is(err, ErrUnknownFormat).
var ErrUnknownFormat = errors.New("gompresso: unrecognized input format")

// Foreign-format decode failures are typed: every error from the
// gzip/zlib/deflate path is a *DeflateError wrapping one of these
// sentinels, re-exported so callers outside this module can classify with
// errors.Is and read the exact input byte offset with errors.As.
var (
	// ErrCorrupt reports structurally invalid DEFLATE data.
	ErrCorrupt = deflate.ErrCorrupt
	// ErrTruncated reports a foreign stream that ends mid-way.
	ErrTruncated = deflate.ErrTruncated
	// ErrChecksum reports a CRC-32, Adler-32, or size-field mismatch.
	ErrChecksum = deflate.ErrChecksum
	// ErrHeader reports an invalid gzip or zlib framing header.
	ErrHeader = deflate.ErrHeader
	// ErrDictionary reports a zlib stream needing a preset dictionary.
	ErrDictionary = deflate.ErrDictionary
)

// DeflateError is the concrete error type of the foreign-format decoder:
// a kind (one of the sentinels above) pinned to a compressed-input byte
// offset.
type DeflateError = deflate.Error

// UnknownFormatError wraps the first bytes (up to four) of an input that
// is neither a Gompresso container nor a recognized foreign format.
type UnknownFormatError struct {
	Magic []byte
}

func (e *UnknownFormatError) Error() string {
	return fmt.Sprintf("gompresso: unrecognized input format (magic % x)", e.Magic)
}

// Is makes errors.Is(err, ErrUnknownFormat) match.
func (e *UnknownFormatError) Is(target error) bool { return target == ErrUnknownFormat }

// DetectFormat reports the format the leading bytes of p sniff as:
// FormatGompresso, FormatGzip, or FormatZlib — or FormatAuto when the
// magic matches none of them (raw DEFLATE is indistinguishable from
// noise). Tools use it to route inputs without attempting a parse.
func DetectFormat(p []byte) Format { return sniffFormat(p) }

// sniffFormat inspects up to four leading bytes. FormatAuto means
// "unrecognized".
func sniffFormat(head []byte) Format {
	if len(head) >= 4 {
		m := format.Magic()
		if head[0] == m[0] && head[1] == m[1] && head[2] == m[2] && head[3] == m[3] {
			return FormatGompresso
		}
	}
	if len(head) >= 2 {
		if head[0] == 0x1f && head[1] == 0x8b {
			return FormatGzip
		}
		// zlib: deflate method, window ≤ 32K, header check divisible by 31.
		if head[0]&0x0f == 8 && head[0]>>4 <= 7 &&
			(uint16(head[0])<<8|uint16(head[1]))%31 == 0 {
			return FormatZlib
		}
	}
	return FormatAuto
}

// unknownFormat builds the typed error for an unrecognized prefix.
func unknownFormat(head []byte) error {
	if len(head) > 4 {
		head = head[:4]
	}
	return &UnknownFormatError{Magic: append([]byte(nil), head...)}
}

// foreignForm maps the public Format to internal/deflate's framing enum.
// Only call for the three foreign formats.
func foreignForm(f Format) deflate.Format {
	switch f {
	case FormatGzip:
		return deflate.FormatGzip
	case FormatZlib:
		return deflate.FormatZlib
	default:
		return deflate.FormatRaw
	}
}

// decompressForeign expands a foreign stream on the codec's worker budget.
func decompressForeign(data []byte, f Format, c *Codec) ([]byte, error) {
	r, err := deflate.NewReaderBytes(c.ctx, data, foreignForm(f), deflate.Options{Workers: c.copt.Workers})
	if err != nil {
		return nil, err
	}
	defer r.Close()
	return r.ReadAll()
}
