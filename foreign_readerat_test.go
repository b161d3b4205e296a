package gompresso_test

import (
	"bytes"
	"compress/gzip"
	"io"
	"testing"

	"gompresso"
	"gompresso/internal/datagen"
)

// foreignFixture builds a gzip stream, its oracle decode, and a SeekIndex
// captured through the facade Reader — the exact path the server uses.
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
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if !r.CollectForeignIndex(spacing) {
		t.Fatal("CollectForeignIndex refused a foreign stream")
	}
	if r.ForeignIndex() != nil {
		t.Fatal("ForeignIndex non-nil before EOF")
	}
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("foreign decode differs from input")
	}
	idx := r.ForeignIndex()
	if idx == nil {
		t.Fatal("ForeignIndex nil after EOF")
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

// TestCollectForeignIndexNative: native containers carry their own block
// index; CollectForeignIndex must refuse rather than pretend.
func TestCollectForeignIndexNative(t *testing.T) {
	c, err := gompresso.New()
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := c.Compress(datagen.WikiXML(32<<10, 5))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.NewReader(bytes.NewReader(comp))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.CollectForeignIndex(0) {
		t.Fatal("CollectForeignIndex accepted a native container")
	}
	if r.ForeignIndex() != nil {
		t.Fatal("ForeignIndex non-nil for native container")
	}
}
