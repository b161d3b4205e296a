package gompresso

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"gompresso/internal/format"
	"gompresso/internal/huffman"
	"gompresso/internal/race"
)

// The block-record grammar has one parser, format.ParseBlock, reached three
// ways: ParseFile hands it a whole container (Decompress), BlockReader frames
// records off a stream for it (Reader, index scans), and NewReaderAt either
// trusts the index trailer or scans. On every golden container, with the
// first record's metadata truncated byte by byte, each bit of its fixed header
// and sub-block count flipped, and each length it carries set to 2^31 and
// 2^32-1, the three must give one verdict: accept or reject, and whether the
// rejection is format.ErrFormat.
func TestContainerGrammarAgreement(t *testing.T) {
	opener, err := New()
	if err != nil {
		t.Fatal(err)
	}
	stream := func(data []byte) error {
		br, err := format.NewBlockReader(bytes.NewReader(data))
		for blk := new(format.Block); err == nil; {
			err = br.Next(blk)
		}
		if err == io.EOF {
			return nil
		}
		return err
	}
	cases := 0
	// check compares the verdicts on data. NewReaderAt joins only when it has
	// to scan: a container whose trailer survived the mutation is opened on
	// the trailer's word, and its records meet ParseBlock when first read.
	check := func(name string, data []byte, scans bool) {
		cases++
		_, want := format.ParseFile(data)
		got := map[string]error{"BlockReader": stream(data)}
		if scans {
			_, got["NewReaderAt"] = opener.NewReaderAt(bytes.NewReader(data), int64(len(data)))
		}
		for who, err := range got {
			if (err == nil) != (want == nil) || errors.Is(err, format.ErrFormat) != errors.Is(want, format.ErrFormat) {
				t.Errorf("%s: ParseFile: %v; %s: %v", name, want, who, err)
			}
		}
	}
	forEachGolden(t, func(name string, c *Codec, raw []byte) {
		comp, _, err := c.Compress(raw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		indexed := c.copt.Index
		f, err := format.ParseFile(comp)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		check(name+"/intact", comp, !indexed)

		const rec = format.HeaderSize
		fields := map[string]int{"rawLen": rec, "numSeqs": rec + 4, "payloadLen": rec + 8}
		fixedEnd := rec + 12
		if f.Header.Variant == VariantBit {
			fields["subCount"] = fixedEnd + huffman.LengthsSize(format.LitLenSyms) + huffman.LengthsSize(format.OffSyms)
			fixedEnd = fields["subCount"] + 4
		}

		// The first record's metadata ends where its payload begins. Every
		// byte of its fixed part and of the first varints is a cut point; the
		// rest of the varint list, thousands of bytes that all fail alike,
		// is sampled, as is everything under the race detector.
		_, idx, err := format.ScanIndex(bytes.NewReader(comp))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		metaEnd := int(idx.Offsets[1]) - len(f.Blocks[0].Payload)
		dense, sparse := 1, 61
		if race.Enabled {
			dense = 7
		}
		for cut := rec; cut < metaEnd; {
			check(name+"/truncated", comp[:cut], true)
			if cut < fixedEnd+64 {
				cut += dense
			} else {
				cut += sparse
			}
		}

		mut := bytes.Clone(comp)
		for field, off := range fields {
			for bit := 0; bit < 32; bit += dense {
				mut[off+bit/8] ^= 1 << (bit % 8)
				check(name+"/"+field+" bit flipped", mut, !indexed)
				mut[off+bit/8] ^= 1 << (bit % 8)
			}
			if field == "rawLen" {
				continue
			}
			for _, v := range []uint32{1 << 31, 1<<32 - 1} {
				binary.LittleEndian.PutUint32(mut[off:], v)
				check(name+"/"+field+" huge", mut, !indexed)
			}
			copy(mut[off:off+4], comp[off:])
		}
	})
	t.Logf("%d mutated containers", cases)
}

// A sub-block table past its block — a size beyond the payload's bits, a
// literal count beyond the raw length, or running sums past them — is refused
// by the one record parser, so every path from bytes to a decode refuses it:
// ParseFile, the BlockReader loop, the streaming Reader, and the host and
// device engines. A first sub-block claiming 2^31 literals once passed the
// parser and made the device engine panic allocating them; one claiming 2^63
// bits wrapped the parser's sum of sizes.
func TestCraftedSubBlockTables(t *testing.T) {
	raw := bytes.Repeat([]byte("sub-block tables split a block's bits and literals; "), 300)
	host, err := New(WithVariant(VariantBit), WithBlockSize(64<<10))
	if err != nil {
		t.Fatal(err)
	}
	dev, err := New(WithEngine(EngineDevice))
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := host.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	f, err := format.ParseFile(comp)
	if err != nil || len(f.Blocks) != 1 || len(f.Blocks[0].SubBits) < 2 {
		t.Fatalf("want a one-block container of several sub-blocks: %v", err)
	}
	b := &f.Blocks[0]
	payloadBits, rawLen := uint64(8*len(b.Payload)), uint64(b.RawLen)
	for name, edit := range map[string]func(bits, lits []uint64){
		"bits 2^63":      func(bits, _ []uint64) { bits[0] = 1 << 63 },
		"bits > payload": func(bits, _ []uint64) { bits[0] = payloadBits + 1 },
		"bit sum":        func(bits, _ []uint64) { bits[0], bits[1] = payloadBits, 1 },
		"lits 2^31":      func(_, lits []uint64) { lits[0] = 1 << 31 },
		"lits > raw":     func(_, lits []uint64) { lits[0] = rawLen + 1 },
		"literal sum":    func(_, lits []uint64) { lits[0], lits[1] = rawLen, 1 },
	} {
		bits, lits := make([]uint64, len(b.SubBits)), make([]uint64, len(b.SubLits))
		for i := range bits {
			bits[i], lits[i] = uint64(b.SubBits[i]), uint64(b.SubLits[i])
		}
		edit(bits, lits)
		list := format.HeaderSize + 12 + huffman.LengthsSize(format.LitLenSyms) + huffman.LengthsSize(format.OffSyms) + 4
		bad := bytes.Clone(comp[:list])
		for i := range bits {
			bad = binary.AppendUvarint(binary.AppendUvarint(bad, bits[i]), lits[i])
		}
		bad = append(bad, b.Payload...)

		errs := make(map[string]error)
		_, errs["ParseFile"] = format.ParseFile(bad)
		br, err := format.NewBlockReader(bytes.NewReader(bad))
		for blk := new(format.Block); err == nil; {
			err = br.Next(blk)
		}
		errs["BlockReader"] = err
		_, _, errs["host"] = host.Decompress(bad)
		_, _, errs["device"] = dev.Decompress(bad)
		if r, err := host.NewReader(bytes.NewReader(bad)); err != nil {
			errs["Reader"] = err
		} else {
			_, errs["Reader"] = io.Copy(io.Discard, r)
		}
		for path, err := range errs {
			if !errors.Is(err, format.ErrFormat) {
				t.Errorf("%s: %s: %v, want ErrFormat", name, path, err)
			}
		}
	}
}
