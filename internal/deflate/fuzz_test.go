package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"hash/crc32"
	"io"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/deflate/corpus"
)

// fuzzCap bounds the inputs the parity targets decode. Deflate expands up to
// ~1032×, so even small inputs produce multi-megabyte outputs on both sides;
// 64 KiB keeps exec throughput high enough for the mutator to explore
// structure, and is several spans and chunks at the minChunkSize the targets
// force, so the speculative leg really runs (TestFuzzSeedsReachSpeculation).
const fuzzCap = 64 << 10

// manyBlocks returns a raw deflate stream with a block boundary about every
// kilobyte of input — a flate.Writer flushed that often — so that every probe
// of the scanner finds a candidate within a few hundred bytes, and what it
// decodes to.
func manyBlocks() (df, raw []byte) {
	raw = datagen.WikiXML(96<<10, 78)
	var buf bytes.Buffer
	fw, _ := flate.NewWriter(&buf, 6)
	for rest := raw; len(rest) > 0; rest = rest[min(1<<10, len(rest)):] {
		fw.Write(rest[:min(1<<10, len(rest))])
		fw.Flush()
	}
	fw.Close()
	return buf.Bytes(), raw
}

// deflateSeeds is FuzzDeflateParity's seed corpus: valid streams of every
// block type, plus truncations and bit flips.
func deflateSeeds() [][]byte {
	var seeds [][]byte
	for _, gz := range corpus.Files() {
		if len(gz) < 19 || gz[3] != 0 { // skip members with optional fields
			continue
		}
		payload := gz[10 : len(gz)-8]
		seeds = append(seeds, payload)
		if len(payload) > 3 {
			mut := append([]byte(nil), payload...)
			mut[len(mut)/3] ^= 0x10
			seeds = append(seeds, payload[:len(payload)/2], mut)
		}
	}
	var df bytes.Buffer
	fw, _ := flate.NewWriter(&df, 6)
	fw.Write(datagen.WikiXML(8<<10, 77))
	fw.Close()
	many, _ := manyBlocks()
	return append(seeds, df.Bytes(), many,
		[]byte{},
		[]byte{0x03, 0x00},       // empty fixed final block
		[]byte{0x01, 0x00, 0x00}, // truncated stored header
	)
}

// gzipSeeds is FuzzGzipParity's seed corpus: the conformance files and the
// many-blocks stream in gzip framing.
func gzipSeeds() [][]byte {
	var seeds [][]byte
	for _, gz := range corpus.Files() {
		seeds = append(seeds, gz)
	}
	df, raw := manyBlocks()
	gz := append([]byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff}, df...)
	gz = binary.LittleEndian.AppendUint32(gz, crc32.ChecksumIEEE(raw))
	return append(seeds, binary.LittleEndian.AppendUint32(gz, uint32(len(raw))))
}

// The parity targets exist for the speculative leg, so their seeds must reach
// it: at the options the targets force, at least one seed of each — within
// the cap — has a chunk spliced. (Under the 8 KiB cap before PR 22 only inputs
// of exactly 8,192 bytes started the scanner at all.)
func TestFuzzSeedsReachSpeculation(t *testing.T) {
	if !canSpeculate() {
		t.Skip("one CPU: Workers > 1 takes the sequential engine")
	}
	for name, target := range map[string]struct {
		seeds [][]byte
		form  Format
	}{"FuzzDeflateParity": {deflateSeeds(), FormatRaw}, "FuzzGzipParity": {gzipSeeds(), FormatGzip}} {
		spliced := 0
		for _, seed := range target.seeds {
			if len(seed) <= fuzzCap {
				got := oneShot(t, seed, target.form, Options{Workers: 2, ChunkSize: minChunkSize})
				checkStats(t, name, got.stats, len(got.out))
				spliced += got.stats.ChunksSpliced
			}
		}
		if spliced == 0 {
			t.Errorf("%s: no seed of %d has a chunk spliced", name, len(target.seeds))
		}
	}
}

// FuzzDeflateParity differentially fuzzes this decoder against
// compress/flate over raw deflate streams: for every input, either both
// decoders succeed with byte-identical output, or both fail. The parallel
// pipeline at a forced-small chunk size must additionally agree with the
// sequential path, so speculation bugs (bad splices, marker resolution,
// fallback handling) surface as parity failures rather than silent
// corruption.
func FuzzDeflateParity(f *testing.F) {
	for _, seed := range deflateSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzCap {
			return
		}
		want, werr := io.ReadAll(flate.NewReader(bytes.NewReader(data)))

		got, gerr := Decompress(data, FormatRaw, Options{Workers: 1})
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error parity: stdlib=%v ours=%v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("output parity: stdlib %d bytes, ours %d bytes", len(want), len(got))
		}

		pgot, pgerr := Decompress(data, FormatRaw, Options{Workers: 4, ChunkSize: minChunkSize})
		if (gerr == nil) != (pgerr == nil) {
			t.Fatalf("parallel error parity: sequential=%v parallel=%v", gerr, pgerr)
		}
		if gerr == nil && !bytes.Equal(pgot, got) {
			t.Fatalf("parallel output parity: %d vs %d bytes", len(pgot), len(got))
		}
	})
}

// FuzzGzipParity is the same differential harness over full gzip framing
// (headers, checksums, multistream), against compress/gzip, through both
// the one-shot and the streaming entry point.
func FuzzGzipParity(f *testing.F) {
	for _, seed := range gzipSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > fuzzCap {
			return
		}
		var want []byte
		zr, werr := gzip.NewReader(bytes.NewReader(data))
		if werr == nil {
			want, werr = io.ReadAll(zr)
		}
		opt := Options{Workers: 2, ChunkSize: minChunkSize}
		got, gerr := Decompress(data, FormatGzip, opt)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("error parity: stdlib=%v ours=%v", werr, gerr)
		}
		if werr == nil && !bytes.Equal(got, want) {
			t.Fatalf("output parity: stdlib %d bytes, ours %d bytes", len(want), len(got))
		}
		// Decompress is the one-shot entry point (ReadAll into the final
		// slice); the streaming Reader runs the same primitive over its
		// sliding buffer and must end the same way after the same bytes.
		sameOutcome(t, "one-shot vs streaming", oneShot(t, data, FormatGzip, opt), streamed(t, data, FormatGzip, opt))
	})
}
