package format

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
	"gompresso/internal/race"
)

// indexContainer builds a Byte-variant multi-block container (optionally
// with an index trailer) plus the true block-record offsets.
func indexContainer(t *testing.T, src []byte, blockSize int, withIndex bool) ([]byte, FileHeader, []int64) {
	t.Helper()
	nb := (len(src) + blockSize - 1) / blockSize
	h := FileHeader{
		Variant:   VariantByte,
		Window:    lz77.DefaultWindow,
		MinMatch:  uint8(lz77.DefaultMinMatch),
		MaxMatch:  uint32(lz77.DefaultMaxMatch),
		BlockSize: uint32(blockSize),
		RawSize:   uint64(len(src)),
		NumBlocks: uint32(nb),
	}
	out := AppendHeader(nil, h)
	offsets := make([]int64, 0, nb+1)
	for i := 0; i < nb; i++ {
		lo, hi := i*blockSize, (i+1)*blockSize
		if hi > len(src) {
			hi = len(src)
		}
		ts, err := lz77.Parse(src[lo:hi], lz77.Options{})
		if err != nil {
			t.Fatal(err)
		}
		payload, err := EncodeByte(ts)
		if err != nil {
			t.Fatal(err)
		}
		blk := Block{RawLen: hi - lo, NumSeqs: len(ts.Seqs), Payload: payload}
		offsets = append(offsets, int64(len(out)))
		out = AppendBlock(out, VariantByte, &blk)
	}
	offsets = append(offsets, int64(len(out)))
	if withIndex {
		out = AppendIndex(out, offsets)
	}
	return out, h, offsets
}

func indexTestSrc(n int) []byte {
	src := make([]byte, n)
	for i := range src {
		src[i] = byte(i>>3) ^ byte(i%251)
	}
	return src
}

func TestIndexTrailerRoundTrip(t *testing.T) {
	src := indexTestSrc(10000)
	comp, h, offsets := indexContainer(t, src, 2048, true)

	// ParseFile accepts and skips the trailer.
	f, err := ParseFile(comp)
	if err != nil {
		t.Fatalf("ParseFile with trailer: %v", err)
	}
	if len(f.Blocks) != int(h.NumBlocks) {
		t.Fatalf("parsed %d blocks, want %d", len(f.Blocks), h.NumBlocks)
	}

	// Both index sources, and OpenIndex's choice between them, agree with the
	// true offsets.
	check := func(name string, idx *Index, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(idx.Offsets) != len(offsets) {
			t.Fatalf("%s: %d offsets, want %d", name, len(idx.Offsets), len(offsets))
		}
		for i := range offsets {
			if idx.Offsets[i] != offsets[i] {
				t.Fatalf("%s: offset[%d] = %d, want %d", name, i, idx.Offsets[i], offsets[i])
			}
		}
	}
	idx, err := ReadIndexAt(bytes.NewReader(comp), int64(len(comp)), h)
	check("ReadIndexAt", idx, err)
	_, idx, err = ScanIndex(bytes.NewReader(comp))
	check("ScanIndex", idx, err)
	idx, scanned, err := OpenIndex(bytes.NewReader(comp), int64(len(comp)), h)
	check("OpenIndex", idx, err)
	if scanned {
		t.Fatal("OpenIndex scanned a container that has a trailer")
	}

	// A container without a trailer has no trailer to read, but scans fine.
	plain, _, _ := indexContainer(t, src, 2048, false)
	if _, err := ReadIndexAt(bytes.NewReader(plain), int64(len(plain)), h); err == nil {
		t.Fatal("ReadIndexAt invented a trailer")
	}
	idx, scanned, err = OpenIndex(bytes.NewReader(plain), int64(len(plain)), h)
	check("OpenIndex plain", idx, err)
	if !scanned {
		t.Fatal("OpenIndex found a trailer in a container without one")
	}
}

// BlockReader must absorb a valid trailer (same blocks, clean io.EOF) and
// report record offsets that match the index.
func TestBlockReaderTrailerAndOffsets(t *testing.T) {
	src := indexTestSrc(9000)
	comp, h, offsets := indexContainer(t, src, 2048, true)
	br, err := NewBlockReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	for i := uint32(0); i < h.NumBlocks; i++ {
		if br.Offset() != offsets[i] {
			t.Fatalf("block %d: Offset() = %d, want %d", i, br.Offset(), offsets[i])
		}
		if err := br.Next(&b); err != nil {
			t.Fatalf("block %d: %v", i, err)
		}
	}
	if br.Offset() != offsets[h.NumBlocks] {
		t.Fatalf("end Offset() = %d, want %d", br.Offset(), offsets[h.NumBlocks])
	}
	if err := br.Next(&b); err != io.EOF {
		t.Fatalf("after last block: %v, want io.EOF", err)
	}
}

// Resuming mid-container yields the remaining blocks and the same
// end-of-stream validation.
func TestBlockReaderResume(t *testing.T) {
	src := indexTestSrc(9000)
	for _, withIndex := range []bool{false, true} {
		comp, h, offsets := indexContainer(t, src, 2048, withIndex)
		for first := uint32(0); first <= h.NumBlocks; first++ {
			br := NewBlockReaderAt(bytes.NewReader(comp[offsets[first]:]), h, first, offsets[first])
			var b Block
			for i := first; i < h.NumBlocks; i++ {
				if err := br.Next(&b); err != nil {
					t.Fatalf("withIndex=%v first=%d block %d: %v", withIndex, first, i, err)
				}
				wantLen := 2048
				if i == h.NumBlocks-1 {
					wantLen = len(src) - int(i)*2048
				}
				if b.RawLen != wantLen {
					t.Fatalf("first=%d block %d: RawLen %d, want %d", first, i, b.RawLen, wantLen)
				}
			}
			if err := br.Next(&b); err != io.EOF {
				t.Fatalf("withIndex=%v first=%d: end error %v, want io.EOF", withIndex, first, err)
			}
		}
	}
}

// Trailing bytes that are not a valid trailer must still be rejected.
func TestIndexTrailerCorruption(t *testing.T) {
	src := indexTestSrc(9000)
	comp, _, _ := indexContainer(t, src, 2048, true)
	plain, _, _ := indexContainer(t, src, 2048, false)

	mutations := map[string][]byte{
		"junk after blocks":  append(append([]byte(nil), plain...), 1, 2, 3),
		"junk after trailer": append(append([]byte(nil), comp...), 0),
		"bad magic":          flipByte(comp, len(comp)-1),
		"bad varint area":    flipByte(comp, len(comp)-IndexFooterSize-1),
		"bad length":         flipByte(comp, len(comp)-IndexFooterSize+1),
	}
	for name, mut := range mutations {
		if _, err := ParseFile(mut); err == nil {
			t.Errorf("%s: ParseFile accepted a corrupt container", name)
		}
		br, err := NewBlockReader(bytes.NewReader(mut))
		if err != nil {
			continue
		}
		var b Block
		for err == nil {
			err = br.Next(&b)
		}
		if err == io.EOF {
			t.Errorf("%s: BlockReader accepted a corrupt container", name)
		}
	}
}

func flipByte(data []byte, i int) []byte {
	out := append([]byte(nil), data...)
	out[i] ^= 0xff
	return out
}

// faultyAt fails every read that touches [from, to) with err, and counts
// the reads it is asked for.
type faultyAt struct {
	data     []byte
	from, to int64
	err      error
	reads    int
}

func (f *faultyAt) ReadAt(p []byte, off int64) (int, error) {
	f.reads++
	if off < f.to && off+int64(len(p)) > f.from {
		return 0, f.err
	}
	return bytes.NewReader(f.data).ReadAt(p, off)
}

// A source that fails while the trailer is read has said nothing about the
// container: OpenIndex must hand its error up, not answer it by reading the
// whole container through the same source. Only bytes that are there and
// wrong — or missing — send it to the scan.
func TestOpenIndexSourceError(t *testing.T) {
	src := datagen.WikiXML(10000, 42)
	comp, h, offsets := indexContainer(t, src, 2048, true)
	size := int64(len(comp))
	eio := errors.New("input/output error")
	for name, f := range map[string]*faultyAt{
		"footer":  {data: comp, from: size - IndexFooterSize, to: size, err: eio},
		"trailer": {data: comp, from: offsets[len(offsets)-1], to: size - IndexFooterSize, err: eio},
	} {
		idx, scanned, err := OpenIndex(f, size, h)
		if !errors.Is(err, eio) || errors.Is(err, ErrFormat) || idx != nil || scanned {
			t.Errorf("%s read failing: index %v, scanned %v, error %v; want the source's error alone", name, idx != nil, scanned, err)
		}
		if want := map[string]int{"footer": 1, "trailer": 2}[name]; f.reads != want {
			t.Errorf("%s read failing: %d reads, want %d and no scan", name, f.reads, want)
		}
	}
	garbage := append([]byte(nil), comp...)
	copy(garbage[size-4:], "XXXX")
	cut := &faultyAt{data: comp, from: size - 2, to: size, err: io.ErrUnexpectedEOF}
	for name, ra := range map[string]io.ReaderAt{"garbage footer": bytes.NewReader(garbage), "short source": cut} {
		if _, err := ReadIndexAt(ra, size, h); !errors.Is(err, ErrFormat) {
			t.Errorf("%s: ReadIndexAt error %v, want ErrFormat", name, err)
		}
		if _, scanned, _ := OpenIndex(ra, size, h); !scanned {
			t.Errorf("%s: OpenIndex did not fall back to the scan", name)
		}
	}
}

// Lying counts in a tiny crafted container must error without provoking
// count-proportional allocations (a 35-byte file claiming 2^28 blocks).
func TestIndexLyingCounts(t *testing.T) {
	h := FileHeader{
		Variant:   VariantByte,
		Window:    8 << 10,
		MinMatch:  4,
		MaxMatch:  64,
		BlockSize: 256 << 10,
		RawSize:   1 << 40,
		NumBlocks: 1 << 28,
	}
	tiny := AppendHeader(nil, h)
	if _, _, err := OpenIndex(bytes.NewReader(tiny), int64(len(tiny)), h); err == nil {
		t.Fatal("OpenIndex accepted a 35-byte container claiming 2^28 blocks")
	}
	if _, _, err := ScanIndex(bytes.NewReader(tiny)); err == nil {
		t.Fatal("ScanIndex accepted a 35-byte container claiming 2^28 blocks")
	}
	// A crafted footer claiming 2^28 index entries in a short trailer.
	forged := append(append([]byte(nil), tiny...), 0, 0, 0, 0)
	forged = append(forged, binary.LittleEndian.AppendUint32(nil, 4)...)
	forged = append(forged, 'G', 'P', 'I', 'X')
	if _, err := ReadIndexAt(bytes.NewReader(forged), int64(len(forged)), h); err == nil {
		t.Fatal("ReadIndexAt accepted a forged trailer for 2^28 blocks")
	}
}

// A block record claiming a ~4 GiB payload must be detected by reading,
// not trusted with an up-front allocation.
func TestBlockReaderLyingPayloadLen(t *testing.T) {
	h := FileHeader{
		Variant:   VariantByte,
		Window:    8 << 10,
		MinMatch:  4,
		MaxMatch:  64,
		BlockSize: 256 << 10,
		RawSize:   1 << 10,
		NumBlocks: 1,
	}
	comp := AppendHeader(nil, h)
	comp = binary.LittleEndian.AppendUint32(comp, 1<<10)      // RawLen
	comp = binary.LittleEndian.AppendUint32(comp, 1)          // NumSeqs
	comp = binary.LittleEndian.AppendUint32(comp, 0xFFFFFFF0) // payloadLen lie
	comp = append(comp, make([]byte, 4096)...)                // far fewer bytes
	br, err := NewBlockReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	var b Block
	if err := br.Next(&b); err == nil {
		t.Fatal("BlockReader accepted a block claiming a 4 GiB payload")
	}
}

// The same holds for every length a record's framing takes on trust — the
// payload length, the sub-block count, and the sequence count it must match:
// set to 2^31 or 2^32-1 they are found out by reading, with the record
// buffer never more than 1 MiB ahead of what the stream supplied.
func TestBlockReaderLyingCounts(t *testing.T) {
	bit, _ := craftBitContainer(t)
	byt, _, _ := indexContainer(t, indexTestSrc(9000), 2048, false)
	const numSeqs, payloadLen = HeaderSize + 4, HeaderSize + 8
	subCount := HeaderSize + 12 + huffman.LengthsSize(LitLenSyms) + huffman.LengthsSize(OffSyms)
	seqsPerSub := uint32(binary.LittleEndian.Uint16(bit[29:]))
	for _, v := range []uint32{1 << 31, 1<<32 - 1} {
		for name, lie := range map[string]func() []byte{
			"byte/payloadLen": func() []byte { return putUint32(byt, payloadLen, v) },
			"bit/payloadLen":  func() []byte { return putUint32(bit, payloadLen, v) },
			"bit/subCount":    func() []byte { return putUint32(bit, subCount, v) },
			"bit/numSeqs":     func() []byte { return putUint32(bit, numSeqs, v) },
			"bit/numSeqs+subCount": func() []byte {
				return putUint32(putUint32(bit, numSeqs, v), subCount, (v-1)/seqsPerSub+1)
			},
		} {
			// 3 MiB of varint continuation bytes follow, so a count is never
			// satisfied and a reader that trusts one has bytes to chase.
			mut := append(lie(), bytes.Repeat([]byte{0x80}, 3<<20)...)
			if _, err := ParseFile(mut); !errors.Is(err, ErrFormat) {
				t.Errorf("%s=%#x: ParseFile: %v, want ErrFormat", name, v, err)
			}
			if _, _, err := ScanIndex(bytes.NewReader(mut)); !errors.Is(err, ErrFormat) {
				t.Errorf("%s=%#x: ScanIndex: %v, want ErrFormat", name, v, err)
			}
			br, err := NewBlockReader(bytes.NewReader(mut))
			if err != nil {
				t.Fatal(err)
			}
			var b Block
			if err := br.Next(&b); !errors.Is(err, ErrFormat) {
				t.Errorf("%s=%#x: BlockReader: %v, want ErrFormat", name, v, err)
			}
			if cap(b.rec) > len(mut)+1<<20 {
				t.Errorf("%s=%#x: record buffer grew to %d for a %d-byte stream", name, v, cap(b.rec), len(mut))
			}
		}
	}
}

func putUint32(data []byte, off int, v uint32) []byte {
	out := bytes.Clone(data)
	binary.LittleEndian.PutUint32(out[off:], v)
	return out
}

// BlockReader's doc comment promises a read loop that stops allocating once
// the Block has grown to the stream's largest record.
func TestBlockReaderSteadyStateAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("the race detector allocates")
	}
	data := fuzzContainer(t, VariantBit, datagen.WikiXML(64<<10, 9), 4<<10) // 16 blocks
	var b Block
	open := func(warm int) *BlockReader {
		br, err := NewBlockReader(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < warm; i++ {
			if err := br.Next(&b); err != nil {
				t.Fatal(err)
			}
		}
		return br
	}
	open(16) // grows b to the largest record
	br := open(1)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := br.Next(&b); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("Next allocates %.1f times per block in the steady state", allocs)
	}
}
