package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"io"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/deflate/corpus"
)

// FuzzDeflateParity differentially fuzzes this decoder against
// compress/flate over raw deflate streams: for every input, either both
// decoders succeed with byte-identical output, or both fail. The parallel
// pipeline at a forced-small chunk size must additionally agree with the
// sequential path, so speculation bugs (bad splices, marker resolution,
// fallback handling) surface as parity failures rather than silent
// corruption.
func FuzzDeflateParity(f *testing.F) {
	// Valid streams of every block type, plus truncations and bit flips.
	for name, gz := range corpus.Files() {
		if len(gz) < 19 || gz[3] != 0 { // skip members with optional fields
			continue
		}
		payload := gz[10 : len(gz)-8]
		f.Add(payload)
		if len(payload) > 3 {
			f.Add(payload[:len(payload)/2])
			mut := append([]byte(nil), payload...)
			mut[len(mut)/3] ^= 0x10
			f.Add(mut)
		}
		_ = name
	}
	var df bytes.Buffer
	fw, _ := flate.NewWriter(&df, 6)
	fw.Write(datagen.WikiXML(8<<10, 77))
	fw.Close()
	f.Add(df.Bytes())
	f.Add([]byte{})
	f.Add([]byte{0x03, 0x00})       // empty fixed final block
	f.Add([]byte{0x01, 0x00, 0x00}) // truncated stored header

	f.Fuzz(func(t *testing.T, data []byte) {
		// Deflate expands up to ~1032×, so even small inputs produce
		// multi-megabyte outputs on both sides; the cap keeps exec
		// throughput high enough for the mutator to explore structure.
		if len(data) > 1<<13 {
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
	for _, gz := range corpus.Files() {
		f.Add(gz)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<13 {
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
