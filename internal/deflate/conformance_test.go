package deflate

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/deflate/corpus"
)

// stdGunzip is the reference: whatever compress/gzip produces (bytes or an
// error) is what this package must produce.
func stdGunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("stdlib gzip.NewReader: %v", err)
	}
	defer zr.Close()
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatalf("stdlib gzip read: %v", err)
	}
	return out
}

// decodeMatrix decodes data at every worker-count × chunk-size combination
// and asserts each result is byte-identical to want — the PR-2-style
// pipeline-parity matrix for the foreign-format path. Small chunk sizes
// force the speculative scanner/resolver machinery to engage even on small
// files.
func decodeMatrix(t *testing.T, name string, data, want []byte, form Format) {
	t.Helper()
	workers := []int{1, 2, runtime.GOMAXPROCS(0)}
	for _, w := range workers {
		for _, chunk := range []int{0, minChunkSize} {
			got, err := Decompress(data, form, Options{Workers: w, ChunkSize: chunk})
			if err != nil {
				t.Fatalf("%s W=%d chunk=%d: %v", name, w, chunk, err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s W=%d chunk=%d: output differs (%d vs %d bytes)",
					name, w, chunk, len(got), len(want))
			}
		}
	}
}

// corpusFiles returns the checked-in conformance corpus.
func corpusFiles(t *testing.T) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob("../../testdata/deflate/*.gz")
	if err != nil || len(paths) == 0 {
		t.Fatalf("conformance corpus missing (run `go run ./cmd/mkcorpus`): %v", err)
	}
	files := make(map[string][]byte, len(paths))
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files[filepath.Base(p)] = data
	}
	return files
}

// The checked-in corpus must match what the generator produces, so the
// crafted files stay reproducible and cannot drift from their source.
func TestCorpusReproducible(t *testing.T) {
	disk := corpusFiles(t)
	gen := corpus.Files()
	var names []string
	for n := range gen {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if !bytes.Equal(disk[n], gen[n]) {
			t.Errorf("%s: checked-in bytes differ from generator output (run `go run ./cmd/mkcorpus`)", n)
		}
		delete(disk, n)
	}
	for n := range disk {
		t.Errorf("%s: on disk but not produced by the generator", n)
	}
}

// Golden round-trip: every conformance file decodes byte-identically to
// compress/gzip at every pipeline configuration.
func TestConformanceCorpus(t *testing.T) {
	for name, data := range corpusFiles(t) {
		want := stdGunzip(t, data)
		decodeMatrix(t, name, data, want, FormatGzip)
	}
}

// The bench corpora, stdlib-compressed at every level 1-9 (plus 0 and
// HuffmanOnly), must round-trip byte-identically — gzip framing, zlib
// framing, and raw deflate alike.
func TestStdlibLevelsParity(t *testing.T) {
	size := 192 << 10
	if testing.Short() {
		size = 48 << 10
	}
	corpora := map[string][]byte{
		"wiki":   datagen.WikiXML(size, 1),
		"matrix": datagen.MatrixMarket(size, 1),
		"random": datagen.Random(size/4, 2),
		"zeros":  datagen.Zeros(size / 2),
	}
	levels := []int{flate.NoCompression, 1, 2, 3, 4, 5, 6, 7, 8, 9, flate.HuffmanOnly}
	if testing.Short() {
		levels = []int{flate.NoCompression, 1, 6, 9, flate.HuffmanOnly}
	}
	for cname, raw := range corpora {
		for _, level := range levels {
			name := fmt.Sprintf("%s/L%d", cname, level)

			var gz bytes.Buffer
			zw, err := gzip.NewWriterLevel(&gz, level)
			if err != nil {
				t.Fatal(err)
			}
			zw.Write(raw)
			zw.Close()
			decodeMatrix(t, name+"/gzip", gz.Bytes(), raw, FormatGzip)

			var zl bytes.Buffer
			zlw, err := zlib.NewWriterLevel(&zl, level)
			if err != nil {
				t.Fatal(err)
			}
			zlw.Write(raw)
			zlw.Close()
			decodeMatrix(t, name+"/zlib", zl.Bytes(), raw, FormatZlib)

			var df bytes.Buffer
			fw, err := flate.NewWriter(&df, level)
			if err != nil {
				t.Fatal(err)
			}
			fw.Write(raw)
			fw.Close()
			decodeMatrix(t, name+"/raw", df.Bytes(), raw, FormatRaw)
		}
	}
}

// Reads through small buffers and the WriteTo fast path must agree.
func TestReaderSmallReads(t *testing.T) {
	raw := datagen.WikiXML(96<<10, 5)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()

	r, err := NewReaderBytes(nil, gz.Bytes(), FormatGzip, Options{Workers: 2, ChunkSize: minChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got bytes.Buffer
	buf := make([]byte, 777)
	for {
		n, err := r.Read(buf)
		got.Write(buf[:n])
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got.Bytes(), raw) {
		t.Fatal("small-read output differs")
	}

	r2, err := NewReaderBytes(nil, gz.Bytes(), FormatGzip, Options{Workers: 2, ChunkSize: minChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	var got2 bytes.Buffer
	if _, err := io.Copy(&got2, r2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2.Bytes(), raw) {
		t.Fatal("WriteTo output differs")
	}
}

// Multi-member gzip decodes across member boundaries at every worker
// count, and Members reports the member count.
func TestMultiMember(t *testing.T) {
	data := corpusFiles(t)["multimember.gz"]
	want := stdGunzip(t, data)
	r, err := NewReaderBytes(nil, data, FormatGzip, Options{Workers: 2, ChunkSize: minChunkSize})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("multimember output differs")
	}
	if r.Members() != 3 {
		t.Fatalf("Members = %d, want 3", r.Members())
	}
}
