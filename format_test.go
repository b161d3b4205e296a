package gompresso_test

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"compress/zlib"
	"errors"
	"io"
	"runtime"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
)

func gzipBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := gzip.NewWriter(&buf)
	w.Write(raw)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// Codec.Decompress must sniff and expand foreign formats byte-identically
// to the stdlib reference decoders, at every worker count.
func TestCodecDecompressForeign(t *testing.T) {
	raw := datagen.WikiXML(192<<10, 21)

	var zl bytes.Buffer
	zw := zlib.NewWriter(&zl)
	zw.Write(raw)
	zw.Close()
	var df bytes.Buffer
	fw, _ := flate.NewWriter(&df, 6)
	fw.Write(raw)
	fw.Close()

	cases := []struct {
		name string
		data []byte
		opts []gompresso.Option
	}{
		{"gzip-sniffed", gzipBytes(t, raw), nil},
		{"gzip-pinned", gzipBytes(t, raw), []gompresso.Option{gompresso.WithFormat(gompresso.FormatGzip)}},
		{"zlib-sniffed", zl.Bytes(), nil},
		{"deflate-pinned", df.Bytes(), []gompresso.Option{gompresso.WithFormat(gompresso.FormatDeflate)}},
	}
	for _, tc := range cases {
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			c, err := gompresso.New(append(tc.opts, gompresso.WithWorkers(workers))...)
			if err != nil {
				t.Fatal(err)
			}
			out, stats, err := c.Decompress(tc.data)
			if err != nil {
				t.Fatalf("%s W=%d: %v", tc.name, workers, err)
			}
			if !bytes.Equal(out, raw) {
				t.Fatalf("%s W=%d: output mismatch (%d bytes)", tc.name, workers, len(out))
			}
			if stats.RawSize != int64(len(raw)) || stats.CompSize != int64(len(tc.data)) {
				t.Fatalf("%s W=%d: stats %+v", tc.name, workers, stats)
			}
		}
	}

	// The native container still round-trips through the same entry point.
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := c.Compress(raw)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := c.Decompress(comp)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("container via sniffing codec: %v", err)
	}
}

// Unrecognized input must fail with the typed ErrUnknownFormat carrying
// the offending magic bytes — from Codec.Decompress and NewReader alike.
func TestUnknownFormat(t *testing.T) {
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	for _, data := range [][]byte{
		[]byte("PK\x03\x04 this is a zip, not ours"),
		[]byte("x"), // too short for any magic
		{},
	} {
		if _, _, err := c.Decompress(data); !errors.Is(err, gompresso.ErrUnknownFormat) {
			t.Fatalf("Decompress(% x): got %v, want ErrUnknownFormat", data, err)
		}
		if _, err := c.NewReader(bytes.NewReader(data)); !errors.Is(err, gompresso.ErrUnknownFormat) {
			t.Fatalf("NewReader(% x): got %v, want ErrUnknownFormat", data, err)
		}
	}
	var ufe *gompresso.UnknownFormatError
	_, _, err = c.Decompress([]byte("PK\x03\x04..."))
	if !errors.As(err, &ufe) || !bytes.Equal(ufe.Magic, []byte("PK\x03\x04")) {
		t.Fatalf("magic bytes not carried: %v", err)
	}
}

// WithFormat values outside the enum are configuration mistakes, rejected
// at New like every other invalid option; NewReaderAt classifies its
// input like Decompress/NewReader but rejects foreign formats (no block
// index to serve random access from).
func TestFormatValidation(t *testing.T) {
	if _, err := gompresso.New(gompresso.WithFormat(gompresso.Format(7))); !errors.Is(err, gompresso.ErrInvalidOption) {
		t.Fatalf("Format(7): got %v, want ErrInvalidOption", err)
	}
	gz := gzipBytes(t, []byte("random access needs an index"))
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewReaderAt(bytes.NewReader(gz), int64(len(gz))); err == nil || errors.Is(err, gompresso.ErrUnknownFormat) {
		t.Fatalf("NewReaderAt(gzip): got %v, want a foreign-format rejection", err)
	}
	if _, err := c.NewReaderAt(bytes.NewReader([]byte("PK\x03\x04zip")), 7); !errors.Is(err, gompresso.ErrUnknownFormat) {
		t.Fatalf("NewReaderAt(zip): got %v, want ErrUnknownFormat", err)
	}
}

// Foreign decode failures must be classifiable through the re-exported
// sentinels and carry their input offset via the exported DeflateError.
func TestForeignErrorsExported(t *testing.T) {
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	gz := gzipBytes(t, datagen.WikiXML(32<<10, 17))

	_, _, err = c.Decompress(gz[:len(gz)/2])
	if !errors.Is(err, gompresso.ErrTruncated) {
		t.Fatalf("truncated: got %v, want ErrTruncated", err)
	}
	var de *gompresso.DeflateError
	if !errors.As(err, &de) || de.Off != int64(len(gz)/2) {
		t.Fatalf("offset not carried: %v", err)
	}

	mut := append([]byte(nil), gz...)
	mut[len(mut)-6] ^= 0xff // CRC field
	if _, _, err := c.Decompress(mut); !errors.Is(err, gompresso.ErrChecksum) {
		t.Fatalf("checksum: got %v, want ErrChecksum", err)
	}
	mut = append([]byte(nil), gz...)
	mut[0] ^= 0xff
	c2, _ := gompresso.New(gompresso.WithFormat(gompresso.FormatGzip))
	if _, _, err := c2.Decompress(mut); !errors.Is(err, gompresso.ErrHeader) {
		t.Fatalf("header: got %v, want ErrHeader", err)
	}
}

// Codec.NewReader serves .gz streams — seekable or not — with output
// identical to stdlib gzip; Seek on a foreign stream fails cleanly.
func TestReaderForeign(t *testing.T) {
	raw := datagen.WikiXML(256<<10, 33)
	gz := gzipBytes(t, raw)

	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		r, err := newCodec(t, gompresso.WithWorkers(workers)).NewReader(bytes.NewReader(gz))
		if err != nil {
			t.Fatal(err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("W=%d: %v", workers, err)
		}
		if !bytes.Equal(out, raw) {
			t.Fatalf("W=%d: output mismatch", workers)
		}
		if _, err := r.Seek(0, io.SeekStart); err == nil {
			t.Fatal("Seek on a foreign stream must fail")
		}
		r.Close()
	}

	// Non-seekable source: the sniffed bytes must be spliced back.
	pr := io.NopCloser(bytes.NewReader(gz))
	r, err := newCodec(t).NewReader(struct{ io.Reader }{pr})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got bytes.Buffer
	if _, err := io.Copy(&got, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), raw) {
		t.Fatal("non-seekable foreign stream mismatch")
	}
}

// A native container read through a non-seekable source must still work
// after the sniffing read consumed its magic.
func TestReaderContainerNonSeekable(t *testing.T) {
	raw := datagen.WikiXML(64<<10, 41)
	comp := compress(t, raw, byteVariant)
	r, err := newCodec(t).NewReader(struct{ io.Reader }{bytes.NewReader(comp)})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(out, raw) {
		t.Fatalf("non-seekable container: %v", err)
	}
}
