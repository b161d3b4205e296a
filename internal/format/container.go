package format

import (
	"encoding/binary"
	"errors"
	"fmt"

	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
)

// The container (paper Fig. 3): a file header carrying the global run-time
// parameters (dictionary/window size, maximum match length, uncompressed
// size, block size, sequences per sub-block), followed by the compressed
// blocks. Each block carries its own trees and sub-block size list so it is
// independently decompressible.

// Variant selects the entropy-coding layer.
type Variant uint8

const (
	// VariantByte is Gompresso/Byte: LZ77 with byte-aligned coding.
	VariantByte Variant = 0
	// VariantBit is Gompresso/Bit: LZ77 with limited-length Huffman coding.
	VariantBit Variant = 1
)

func (v Variant) String() string {
	switch v {
	case VariantByte:
		return "Gompresso/Byte"
	case VariantBit:
		return "Gompresso/Bit"
	default:
		return fmt.Sprintf("Variant(%d)", uint8(v))
	}
}

var magic = [4]byte{'G', 'P', 'Z', '1'}

// Magic returns the container's four magic bytes, for callers that sniff
// container formats without parsing a full header.
func Magic() [4]byte { return magic }

// ErrFormat reports a malformed container.
var ErrFormat = errors.New("format: invalid Gompresso file")

// FileHeader is the decoded file header.
type FileHeader struct {
	Variant    Variant
	DEMode     lz77.DEMode
	CWL        uint8 // bit variant: codeword length limit
	Window     uint32
	MinMatch   uint8
	MaxMatch   uint32
	BlockSize  uint32
	RawSize    uint64
	SeqsPerSub uint16
	NumBlocks  uint32
}

// Block is one compressed data block. For the Byte variant only RawLen,
// NumSeqs and Payload are set.
type Block struct {
	RawLen  int
	NumSeqs int
	Payload []byte

	// Bit variant:
	LitLenLengths []uint8
	OffLengths    []uint8
	SubBits       []int64
	SubLits       []int32

	// rec is the record buffer of a Block filled by BlockReader.Next, which
	// reuses it from call to call; Payload aliases it.
	rec []byte
}

// File is a parsed Gompresso container. Payload slices alias the input
// buffer passed to ParseFile.
type File struct {
	Header FileHeader
	Blocks []Block
}

const headerSize = 4 + 1 + 1 + 1 + 1 + 4 + 1 + 4 + 4 + 8 + 2 + 4

// blockHeaderSize is the size of a block record's fixed fields: raw length,
// sequence count and payload length.
const blockHeaderSize = 4 + 4 + 4

// MaxBlockSize is the largest block size a container may declare, and the
// ceiling core.Options.Normalize puts on the encoder.
const MaxBlockSize = 1 << 26

// A record's raw length and sequence count are bounded by its payload, so
// that neither can size an allocation the payload could not fill. The
// cheapest sequence is one code of at least one bit (Bit) or one token byte
// (Byte). The most raw bytes per payload bit are a longest match's
// (Bit): MaxLenValue bytes for a length code, its maxLenExtra extra bits and
// an offset code, at least 18 bits in all. A Byte payload byte adds at most
// 255 to a length: a literal is one byte per byte, and a match of length
// 255k+14 at most costs a token, k extension bytes and a 2-byte offset.
const (
	maxRawPerBit  = (MaxLenValue + maxLenExtra + 1) / (maxLenExtra + 2)
	maxRawPerByte = 255
)

// AppendHeader serializes the file header.
func AppendHeader(dst []byte, h FileHeader) []byte {
	dst = append(dst, magic[:]...)
	dst = append(dst, 1, byte(h.Variant), byte(h.DEMode), h.CWL)
	dst = binary.LittleEndian.AppendUint32(dst, h.Window)
	dst = append(dst, h.MinMatch)
	dst = binary.LittleEndian.AppendUint32(dst, h.MaxMatch)
	dst = binary.LittleEndian.AppendUint32(dst, h.BlockSize)
	dst = binary.LittleEndian.AppendUint64(dst, h.RawSize)
	dst = binary.LittleEndian.AppendUint16(dst, h.SeqsPerSub)
	dst = binary.LittleEndian.AppendUint32(dst, h.NumBlocks)
	return dst
}

// AppendBlock serializes one block (header fields, trees, size lists,
// payload) according to the file variant.
func AppendBlock(dst []byte, variant Variant, b *Block) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.RawLen))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(b.NumSeqs))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.Payload)))
	if variant == VariantBit {
		dst = huffman.AppendLengths(dst, b.LitLenLengths)
		dst = huffman.AppendLengths(dst, b.OffLengths)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(b.SubBits)))
		for i, v := range b.SubBits {
			dst = binary.AppendUvarint(dst, uint64(v))
			dst = binary.AppendUvarint(dst, uint64(b.SubLits[i]))
		}
	}
	dst = append(dst, b.Payload...)
	return dst
}

// ParseHeader decodes and validates the fixed-size file header. data must
// hold at least HeaderSize bytes.
func ParseHeader(data []byte) (FileHeader, error) {
	var h FileHeader
	if len(data) < headerSize {
		return h, fmt.Errorf("%w: short header (%d bytes)", ErrFormat, len(data))
	}
	if [4]byte(data[:4]) != magic {
		return h, fmt.Errorf("%w: bad magic %q", ErrFormat, data[:4])
	}
	if data[4] != 1 {
		return h, fmt.Errorf("%w: unsupported version %d", ErrFormat, data[4])
	}
	h.Variant = Variant(data[5])
	h.DEMode = lz77.DEMode(data[6])
	h.CWL = data[7]
	h.Window = binary.LittleEndian.Uint32(data[8:])
	h.MinMatch = data[12]
	h.MaxMatch = binary.LittleEndian.Uint32(data[13:])
	h.BlockSize = binary.LittleEndian.Uint32(data[17:])
	h.RawSize = binary.LittleEndian.Uint64(data[21:])
	h.SeqsPerSub = binary.LittleEndian.Uint16(data[29:])
	h.NumBlocks = binary.LittleEndian.Uint32(data[31:])
	if h.Variant != VariantByte && h.Variant != VariantBit {
		return h, fmt.Errorf("%w: unknown variant %d", ErrFormat, h.Variant)
	}
	if h.Variant == VariantBit && (h.CWL == 0 || h.CWL > huffman.MaxCodeLen) {
		return h, fmt.Errorf("%w: CWL %d out of range", ErrFormat, h.CWL)
	}
	if h.NumBlocks > 1<<28 {
		return h, fmt.Errorf("%w: implausible block count %d", ErrFormat, h.NumBlocks)
	}
	if h.BlockSize > MaxBlockSize {
		return h, fmt.Errorf("%w: block size %d exceeds %d", ErrFormat, h.BlockSize, MaxBlockSize)
	}
	return h, nil
}

// HeaderSize is the encoded size of the fixed file header.
const HeaderSize = headerSize

// ParseBlock parses and validates block record bi of an h-headed container
// from data, which must start at the record's first byte. It is the only
// code that knows the record grammar: ParseFile hands it a whole container,
// BlockReader a record it has framed off a stream, ReaderAt one it read by
// index. b's slices are reused when they have capacity; Payload aliases
// data. It returns the bytes remaining after the record.
func ParseBlock(h FileHeader, bi uint32, data []byte, b *Block) ([]byte, error) {
	rest := data
	if len(rest) < blockHeaderSize {
		return nil, fmt.Errorf("%w: block %d: truncated header", ErrFormat, bi)
	}
	b.RawLen = int(binary.LittleEndian.Uint32(rest))
	b.NumSeqs = int(binary.LittleEndian.Uint32(rest[4:]))
	payloadLen := int(binary.LittleEndian.Uint32(rest[8:]))
	rest = rest[blockHeaderSize:]
	units, rawPerUnit := int64(payloadLen), int64(maxRawPerByte)
	if h.Variant == VariantBit {
		units, rawPerUnit = 8*units, maxRawPerBit
	}
	if int64(b.NumSeqs) > units {
		return nil, fmt.Errorf("%w: block %d: %d sequences in a %d-byte payload", ErrFormat, bi, b.NumSeqs, payloadLen)
	}
	if int64(b.RawLen) > units*rawPerUnit {
		return nil, fmt.Errorf("%w: block %d: raw length %d from a %d-byte payload", ErrFormat, bi, b.RawLen, payloadLen)
	}
	if h.BlockSize != 0 && uint32(b.RawLen) > h.BlockSize {
		return nil, fmt.Errorf("%w: block %d: raw length %d exceeds block size %d", ErrFormat, bi, b.RawLen, h.BlockSize)
	}
	// Decoders place block bi's output at bi*BlockSize, so every block
	// except the last must be exactly full.
	if bi != h.NumBlocks-1 && uint32(b.RawLen) != h.BlockSize {
		return nil, fmt.Errorf("%w: block %d: non-final block is %d bytes, block size is %d", ErrFormat, bi, b.RawLen, h.BlockSize)
	}
	b.LitLenLengths = b.LitLenLengths[:0]
	b.OffLengths = b.OffLengths[:0]
	b.SubBits = b.SubBits[:0]
	b.SubLits = b.SubLits[:0]
	if h.Variant == VariantBit {
		var err error
		b.LitLenLengths, rest, err = huffman.ParseLengths(b.LitLenLengths, rest, LitLenSyms)
		if err == nil {
			b.OffLengths, rest, err = huffman.ParseLengths(b.OffLengths, rest, OffSyms)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: block %d: %w", ErrFormat, bi, err)
		}
		if len(rest) < 4 {
			return nil, fmt.Errorf("%w: block %d: truncated sub-block count", ErrFormat, bi)
		}
		numSubs := int(binary.LittleEndian.Uint32(rest))
		rest = rest[4:]
		if h.SeqsPerSub == 0 {
			return nil, fmt.Errorf("%w: block %d: zero sequences per sub-block", ErrFormat, bi)
		}
		want := 0
		if b.NumSeqs > 0 {
			want = (b.NumSeqs + int(h.SeqsPerSub) - 1) / int(h.SeqsPerSub)
		}
		if numSubs != want {
			return nil, fmt.Errorf("%w: block %d: %d sub-blocks for %d seqs (%d per sub)", ErrFormat, bi, numSubs, b.NumSeqs, h.SeqsPerSub)
		}
		// Each sub-block entry is at least two varint bytes, which bounds
		// the preallocation by the remaining input — a lying count cannot
		// force a huge allocation.
		if numSubs > len(rest)/2 {
			return nil, fmt.Errorf("%w: block %d: %d sub-blocks exceed remaining input", ErrFormat, bi, numSubs)
		}
		if cap(b.SubBits) < numSubs {
			b.SubBits = make([]int64, 0, numSubs)
			b.SubLits = make([]int32, 0, numSubs)
		}
		// The sub-blocks split the payload's bits and the block's literals,
		// so neither running sum may pass its whole: that keeps both sums
		// from wrapping and every count within what a device lane may
		// allocate from it.
		var totalBits, totalLits uint64
		for s := 0; s < numSubs; s++ {
			v, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("%w: block %d: bad sub-block size varint", ErrFormat, bi)
			}
			rest = rest[n:]
			lv, n := binary.Uvarint(rest)
			if n <= 0 {
				return nil, fmt.Errorf("%w: block %d: bad sub-block literal varint", ErrFormat, bi)
			}
			rest = rest[n:]
			if v > uint64(payloadLen)*8-totalBits || lv > uint64(b.RawLen)-totalLits {
				return nil, fmt.Errorf("%w: block %d: sub-blocks exceed the %d-byte payload or %d raw bytes", ErrFormat, bi, payloadLen, b.RawLen)
			}
			totalBits, totalLits = totalBits+v, totalLits+lv
			b.SubBits = append(b.SubBits, int64(v))
			b.SubLits = append(b.SubLits, int32(lv))
		}
	}
	if len(rest) < payloadLen {
		return nil, fmt.Errorf("%w: block %d: truncated payload (%d of %d bytes)", ErrFormat, bi, len(rest), payloadLen)
	}
	b.Payload = rest[:payloadLen:payloadLen]
	return rest[payloadLen:], nil
}

// ParseFile parses a container. Block payloads alias data. A trailing index
// (see AppendIndex) is validated and skipped.
func ParseFile(data []byte) (*File, error) {
	h, err := ParseHeader(data)
	if err != nil {
		return nil, err
	}
	f := &File{Header: h}
	rest := data[headerSize:]
	var totalRaw uint64
	for bi := uint32(0); bi < h.NumBlocks; bi++ {
		var b Block
		rest, err = ParseBlock(h, bi, rest, &b)
		if err != nil {
			return nil, err
		}
		totalRaw += uint64(b.RawLen)
		f.Blocks = append(f.Blocks, b)
	}
	if len(rest) != 0 {
		// The only thing allowed after the last block is an index trailer
		// whose offsets end exactly where the parsed blocks actually did.
		if _, err := parseIndexBytes(rest, h, int64(len(data)-len(rest))); err != nil {
			return nil, fmt.Errorf("%w: %d trailing bytes", ErrFormat, len(rest))
		}
	}
	if totalRaw != h.RawSize {
		return nil, fmt.Errorf("%w: blocks total %d raw bytes, header says %d", ErrFormat, totalRaw, h.RawSize)
	}
	return f, nil
}

// bitView is the BitBlock view of parsed block b: the block's own fields
// plus the header's sub-block granularity.
func (h FileHeader) bitView(b *Block) BitBlock {
	return BitBlock{
		LitLenLengths: b.LitLenLengths,
		OffLengths:    b.OffLengths,
		SubBits:       b.SubBits,
		SubLits:       b.SubLits,
		Payload:       b.Payload,
		NumSeqs:       b.NumSeqs,
		SeqsPerSub:    int(h.SeqsPerSub),
	}
}

// BitBlockOf reconstructs the BitBlock view of a parsed block.
func (f *File) BitBlockOf(i int) *BitBlock {
	bb := f.Header.bitView(&f.Blocks[i])
	return &bb
}

// DecodeBlockInto decodes block b of an h-headed container into dst, whose
// length must be the block's raw length. It is the single per-block decode
// entry point: the one-shot host engine, the streaming Reader and ReaderAt
// all turn a parsed block into bytes through it, on the fused fast paths
// (DecodeBitInto / DecodeByteInto). sc is Bit-variant decode scratch; nil
// borrows one from the package pool for the call.
func (h FileHeader) DecodeBlockInto(dst []byte, b *Block, sc *DecodeScratch) error {
	if b.RawLen != len(dst) {
		return fmt.Errorf("%w: block raw length %d, expected %d", ErrFormat, b.RawLen, len(dst))
	}
	if h.Variant == VariantByte {
		return DecodeByteInto(dst, b.Payload, b.NumSeqs)
	}
	bb := h.bitView(b)
	return bb.DecodeBitInto(dst, sc)
}
