package format

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"testing"
	"testing/iotest"

	"gompresso/internal/datagen"
	"gompresso/internal/huffman"
)

// counting is a source that cannot seek and counts the bytes it has handed out.
type counting struct {
	r io.Reader
	n int64
}

func (c *counting) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// A BlockReader keeps no read buffer: whatever pieces the source hands out,
// it has taken exactly the bytes up to Offset after every Next — the header
// after NewBlockReader, block i's record after the i-th Next, the trailer
// at io.EOF — and the blocks it frames decode back to the input.
func TestBlockReaderReadsNoFurther(t *testing.T) {
	const bs = 4 << 10
	src := datagen.WikiXML(10*bs+bs/3, 17)
	containers := make(map[string][]byte)
	for _, v := range []Variant{VariantBit, VariantByte} {
		data := fuzzContainer(t, v, src, bs)
		_, idx, err := ScanIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		containers[fmt.Sprint(v)] = data
		containers[fmt.Sprint(v, "+index")] = AppendIndex(bytes.Clone(data), idx.Offsets)
	}
	for name, data := range containers {
		for how, wrap := range map[string]func(io.Reader) io.Reader{
			"whole":    func(r io.Reader) io.Reader { return r },
			"one byte": iotest.OneByteReader,
			"half":     iotest.HalfReader,
		} {
			what := name + "/" + how
			c := &counting{r: bytes.NewReader(data)}
			br, err := NewBlockReader(wrap(c))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			h := br.Header()
			got := make([]byte, 0, len(src))
			for b := new(Block); ; {
				if c.n != br.Offset() {
					t.Fatalf("%s: %d bytes taken from the source, Offset %d", what, c.n, br.Offset())
				}
				err := br.Next(b)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if err := h.DecodeBlockInto(got[len(got):len(got)+b.RawLen], b, nil); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				got = got[:len(got)+b.RawLen]
			}
			if c.n != int64(len(data)) || br.Offset() != int64(len(data)) {
				t.Fatalf("%s: at io.EOF %d bytes taken, Offset %d, container %d", what, c.n, br.Offset(), len(data))
			}
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: the blocks decode to different bytes", what)
			}
		}
	}
}

// A stream that ends inside any field of a record — its fixed bytes, a Bit
// record's trees and sub-block list, its payload — is a malformed container,
// ErrFormat; a source that fails there is not, and its error comes back
// unclassified.
func TestBlockReaderCutInsideEachField(t *testing.T) {
	const bs = 4 << 10
	src := datagen.WikiXML(3*bs, 19)
	eio := errors.New("input/output error")
	for _, v := range []Variant{VariantBit, VariantByte} {
		data := fuzzContainer(t, v, src, bs)
		_, idx, err := ScanIndex(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		rec, end := int(idx.Offsets[1]), int(idx.Offsets[2]) // the second record
		fields := map[string]int{"fixed bytes": rec + 5}
		if v == VariantBit {
			trees := huffman.LengthsSize(LitLenSyms) + huffman.LengthsSize(OffSyms)
			fields["trees"] = rec + blockHeaderSize + trees/2
			fields["sub-block count"] = rec + blockHeaderSize + trees + 2
			fields["sub-block list"] = rec + blockHeaderSize + trees + 4 + 3
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[rec+8:]))
		fields["payload"] = end - payloadLen/2
		for field, cut := range fields {
			for how, tail := range map[string]io.Reader{"ends": bytes.NewReader(nil), "fails": iotest.ErrReader(eio)} {
				br, err := NewBlockReader(io.MultiReader(bytes.NewReader(data[:cut]), tail))
				if err != nil {
					t.Fatal(err)
				}
				for b := new(Block); err == nil; {
					err = br.Next(b)
				}
				switch {
				case how == "ends" && !errors.Is(err, ErrFormat):
					t.Errorf("%v: stream ends inside the %s: %v, want ErrFormat", v, field, err)
				case how == "fails" && (!errors.Is(err, eio) || errors.Is(err, ErrFormat)):
					t.Errorf("%v: source fails inside the %s: %v, want its error unclassified", v, field, err)
				}
			}
		}
	}
}

// withSubTable returns data, a one-block Bit container without an index
// trailer, with its sub-block table rewritten by edit.
func withSubTable(tb testing.TB, data []byte, edit func(bits, lits []uint64)) []byte {
	tb.Helper()
	f, err := ParseFile(data)
	if err != nil || len(f.Blocks) != 1 || f.Header.Variant != VariantBit {
		tb.Fatalf("not a one-block Bit container: %v", err)
	}
	b := &f.Blocks[0]
	bits, lits := make([]uint64, len(b.SubBits)), make([]uint64, len(b.SubLits))
	for i := range bits {
		bits[i], lits[i] = uint64(b.SubBits[i]), uint64(b.SubLits[i])
	}
	edit(bits, lits)
	list := HeaderSize + blockHeaderSize + huffman.LengthsSize(LitLenSyms) + huffman.LengthsSize(OffSyms) + 4
	out := bytes.Clone(data[:list])
	for i := range bits {
		out = binary.AppendUvarint(binary.AppendUvarint(out, bits[i]), lits[i])
	}
	return append(out, b.Payload...)
}

// craftedSubTables returns one-block Bit containers whose sub-block tables
// lie, as FuzzDecodeBlock seeds: one size or literal count past its whole, a
// running sum past it, and the single counts (2^63 bits, 2^31 literals) that
// once wrapped the bit sum and sent a device lane a length it could not
// allocate. ParseBlock refuses them all (the root's TestCraftedSubBlockTables
// follows them down every path).
func craftedSubTables(tb testing.TB) map[string][]byte {
	data := fuzzContainer(tb, VariantBit, datagen.WikiXML(16<<10, 1), 16<<10)
	f, err := ParseFile(data)
	if err != nil {
		tb.Fatal(err)
	}
	bitsAll, rawLen := uint64(8*len(f.Blocks[0].Payload)), uint64(f.Blocks[0].RawLen)
	if len(f.Blocks[0].SubBits) < 2 {
		tb.Fatal("the crafted container needs two sub-blocks")
	}
	out := make(map[string][]byte)
	for name, edit := range map[string]func(bits, lits []uint64){
		"bits 2^63":      func(bits, _ []uint64) { bits[0] = 1 << 63 },
		"bits > payload": func(bits, _ []uint64) { bits[0] = bitsAll + 1 },
		"bit sum":        func(bits, _ []uint64) { bits[0], bits[1] = bitsAll, 1 },
		"lits 2^31":      func(_, lits []uint64) { lits[0] = 1 << 31 },
		"lits > raw":     func(_, lits []uint64) { lits[0] = rawLen + 1 },
		"literal sum":    func(_, lits []uint64) { lits[0], lits[1] = rawLen, 1 },
	} {
		out[name] = withSubTable(tb, data, edit)
	}
	return out
}
