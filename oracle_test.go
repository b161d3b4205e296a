package gompresso_test

import (
	"fmt"

	"gompresso/internal/format"
	"gompresso/internal/lz77"
)

// referenceDecompress is the oracle the host fast path is checked against:
// the materializing reference pipeline — every block entropy-decoded into
// a lz77.TokenStream (format.DecodeBit / DecodeByte), then resolved by
// TokenStream.Decompress — sharing no decode loop with
// format.DecodeBlockInto. Output must be byte-identical on every valid
// container.
func referenceDecompress(comp []byte) ([]byte, error) {
	f, err := format.ParseFile(comp)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, f.Header.RawSize)
	for i := range f.Blocks {
		blk := &f.Blocks[i]
		var ts *lz77.TokenStream
		if f.Header.Variant == format.VariantByte {
			ts, err = format.DecodeByte(blk.Payload, blk.NumSeqs, blk.RawLen)
		} else {
			ts, err = f.BitBlockOf(i).DecodeBit(blk.RawLen)
		}
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		raw, err := ts.Decompress(nil)
		if err != nil {
			return nil, fmt.Errorf("block %d: %w", i, err)
		}
		if len(raw) != blk.RawLen {
			return nil, fmt.Errorf("block %d: decompressed %d bytes, header says %d", i, len(raw), blk.RawLen)
		}
		out = append(out, raw...)
	}
	return out, nil
}
