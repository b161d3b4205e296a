package core

import (
	"errors"
	"fmt"
	"runtime"

	"gompresso/internal/format"
	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
)

// This file is the single home of option normalization and validation.
// Every entry point — Compress, the public Codec, the streaming Reader and
// Writer pipelines — routes its configuration through Normalize below, so defaults are filled and domains are
// checked in exactly one place.

// ErrInvalidOption reports a configuration value outside its domain (a
// negative worker count, a block size out of range, an unknown variant).
// All option-validation failures wrap it, so callers can distinguish
// configuration mistakes from data errors with errors.Is.
var ErrInvalidOption = errors.New("invalid option")

func invalidf(msg string, args ...any) error {
	return fmt.Errorf("core: %w: %s", ErrInvalidOption, fmt.Sprintf(msg, args...))
}

// Normalize fills unset compression options with the paper's defaults and
// validates the result. The returned Options are what Compress actually
// runs with; callers that encode blocks themselves (the streaming Writer)
// must normalize once up front so every block sees identical parameters.
func (o Options) Normalize() (Options, error) {
	switch {
	case o.BlockSize < 0:
		return o, invalidf("negative block size %d", o.BlockSize)
	case o.Workers < 0:
		return o, invalidf("negative worker count %d", o.Workers)
	case o.SeqsPerSub < 0:
		return o, invalidf("negative sequences per sub-block %d", o.SeqsPerSub)
	case o.CWL < 0:
		return o, invalidf("negative codeword length limit %d", o.CWL)
	case o.Window < 0:
		return o, invalidf("negative window %d", o.Window)
	}
	if o.BlockSize == 0 {
		o.BlockSize = DefaultBlockSize
	}
	if o.Window == 0 {
		o.Window = lz77.DefaultWindow
	}
	if o.MinMatch == 0 {
		o.MinMatch = lz77.DefaultMinMatch
	}
	if o.MaxMatch == 0 {
		o.MaxMatch = lz77.DefaultMaxMatch
	}
	if o.CWL == 0 {
		o.CWL = huffman.DefaultCWL
	}
	if o.SeqsPerSub == 0 {
		o.SeqsPerSub = format.DefaultSeqsPerSub
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	switch {
	case o.BlockSize < 1<<10 || o.BlockSize > format.MaxBlockSize:
		return o, invalidf("block size %d out of range [1KiB, 64MiB]", o.BlockSize)
	case o.Variant != format.VariantByte && o.Variant != format.VariantBit:
		return o, invalidf("unknown variant %d", o.Variant)
	case o.Variant == format.VariantByte && o.Window > format.MaxByteOffset:
		return o, invalidf("window %d exceeds Byte-variant offset range %d", o.Window, format.MaxByteOffset)
	case o.Window > format.MaxOffValue:
		return o, invalidf("window %d exceeds Bit-variant offset range %d", o.Window, format.MaxOffValue)
	case o.CWL < 2 || o.CWL > huffman.MaxCodeLen:
		return o, invalidf("CWL %d out of range", o.CWL)
	case o.SeqsPerSub > 1<<12:
		return o, invalidf("%d sequences per sub-block out of range", o.SeqsPerSub)
	}
	return o, nil
}

// lzOptions projects the compression options onto the LZ77 parser's.
func (o Options) lzOptions() lz77.Options {
	return lz77.Options{
		Window:    o.Window,
		MinMatch:  o.MinMatch,
		MaxMatch:  o.MaxMatch,
		MaxChain:  o.MaxChain,
		DE:        o.DE,
		Staleness: o.Staleness,
	}
}
