package gompresso_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/deflate"
	"gompresso/internal/gzidx"
)

// foreignFixture builds a gzip stream, its oracle decode, and a SeekIndex
// captured by gzidx.Build — the exact path the server uses.
func foreignFixture(t *testing.T, rawLen int, spacing int64) ([]byte, []byte, *gompresso.SeekIndex) {
	t.Helper()
	raw := datagen.WikiXML(rawLen, 1234)
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(raw); err != nil {
		t.Fatal(err)
	}
	zw.Close()
	data := buf.Bytes()
	idx, err := gzidx.Build(context.Background(), data, deflate.FormatGzip, spacing, deflate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return data, raw, idx
}

// TestForeignReaderAtRejectsMismatch: an index built over different bytes
// must be rejected at construction (size) — the staleness gate callers
// rely on.
func TestForeignReaderAtRejectsMismatch(t *testing.T) {
	data, _, idx := foreignFixture(t, 64<<10, 16<<10)
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewReaderAtWithIndex(bytes.NewReader(data), int64(len(data))-1, idx); err == nil {
		t.Fatal("accepted index with mismatched source size")
	}
	if _, err := c.NewReaderAtWithIndex(bytes.NewReader(data), int64(len(data)), nil); err == nil {
		t.Fatal("accepted nil index")
	}
}
