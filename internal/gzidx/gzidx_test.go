package gzidx

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"gompresso/internal/datagen"
	"gompresso/internal/deflate"
	"gompresso/internal/deflate/corpus"
	"gompresso/internal/format"
	"gompresso/internal/race"
)

func testIndex(t testing.TB) (*deflate.Index, []byte) {
	t.Helper()
	data := corpus.Files()["window.gz"]
	idx, err := Build(context.Background(), data, deflate.FormatGzip, 8<<10, deflate.Options{Workers: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return idx, data
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	idx, data := testIndex(t)
	mtime := time.Unix(1700000000, 123456789)
	enc, err := Encode(idx, mtime)
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	got, meta, err := Decode(enc)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if meta.SrcSize != int64(len(data)) || meta.SrcMtime != mtime.UnixNano() {
		t.Fatalf("meta = %+v", meta)
	}
	if got.Form != idx.Form || got.RawSize != idx.RawSize || got.Members != idx.Members || got.SrcSize != idx.SrcSize {
		t.Fatalf("header fields differ: %+v vs %+v", got, idx)
	}
	if len(got.Checkpoints) != len(idx.Checkpoints) {
		t.Fatalf("%d checkpoints, want %d", len(got.Checkpoints), len(idx.Checkpoints))
	}
	for i := range idx.Checkpoints {
		a, b := &idx.Checkpoints[i], &got.Checkpoints[i]
		if a.Bit != b.Bit || a.Out != b.Out || !bytes.Equal(a.Window, b.Window) {
			t.Fatalf("checkpoint %d differs", i)
		}
	}
	if meta.Stale(int64(len(data)), mtime) {
		t.Fatal("fresh sidecar reported stale")
	}
	if !meta.Stale(int64(len(data))+1, mtime) || !meta.Stale(int64(len(data)), mtime.Add(time.Second)) {
		t.Fatal("size/mtime change not reported stale")
	}
}

// TestDecodeCorrupt flips every byte position (stride to keep runtime
// sane) and checks Decode rejects the damage — the trailing CRC makes
// this exhaustive in spirit.
func TestDecodeCorrupt(t *testing.T) {
	idx, _ := testIndex(t)
	enc, err := Encode(idx, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for pos := 0; pos < len(enc); pos += 7 {
		bad := append([]byte(nil), enc...)
		bad[pos] ^= 0x01
		if _, _, err := Decode(bad); err == nil {
			t.Fatalf("Decode accepted corruption at byte %d", pos)
		} else if !errors.Is(err, ErrSidecar) {
			t.Fatalf("corruption at byte %d: error %v does not wrap ErrSidecar", pos, err)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	idx, _ := testIndex(t)
	enc, err := Encode(idx, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{0, 3, 20, 43, len(enc) / 2, len(enc) - 1} {
		if n >= len(enc) {
			continue
		}
		if _, _, err := Decode(enc[:n]); !errors.Is(err, ErrSidecar) {
			t.Fatalf("Decode of %d/%d bytes: %v", n, len(enc), err)
		}
	}
}

func TestLoadFile(t *testing.T) {
	idx, data := testIndex(t)
	mtime := time.Unix(1700000000, 0)
	enc, err := Encode(idx, mtime)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "sub", "obj.gz"+Ext)
	if err := WriteFileAtomic(path, enc); err != nil {
		t.Fatalf("WriteFileAtomic: %v", err)
	}
	// No temp droppings left behind.
	ents, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("%d entries in sidecar dir, want 1", len(ents))
	}
	if _, err := LoadFile(path, int64(len(data)), mtime); err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	// Stale by size and by mtime.
	if _, err := LoadFile(path, int64(len(data))-1, mtime); !errors.Is(err, ErrSidecar) {
		t.Fatalf("stale size: %v", err)
	}
	if _, err := LoadFile(path, int64(len(data)), mtime.Add(time.Minute)); !errors.Is(err, ErrSidecar) {
		t.Fatalf("stale mtime: %v", err)
	}
	// Missing file surfaces as not-exist, so callers can rebuild quietly.
	if _, err := LoadFile(filepath.Join(dir, "nope"), 0, mtime); !os.IsNotExist(err) {
		t.Fatalf("missing sidecar: %v", err)
	}
}

// TestWindowCompression checks that compressible windows actually take
// the Bit-codec path (enc=1) and still roundtrip.
func TestWindowCompression(t *testing.T) {
	idx, _ := testIndex(t)
	var withWin *deflate.Checkpoint
	for i := range idx.Checkpoints {
		if len(idx.Checkpoints[i].Window) > 0 {
			withWin = &idx.Checkpoints[i]
			break
		}
	}
	if withWin == nil {
		t.Fatal("no checkpoint with a window in test index")
	}
	enc, err := Encode(idx, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	// The corpus windows are XML-ish text: the sidecar must be smaller
	// than the raw windows it stores, proving compression engaged.
	var rawWin int
	for i := range idx.Checkpoints {
		rawWin += len(idx.Checkpoints[i].Window)
	}
	if len(enc) >= rawWin+44+23*len(idx.Checkpoints) {
		t.Fatalf("sidecar %d bytes ≥ raw windows %d + framing: compression never engaged", len(enc), rawWin)
	}
}

// lyingWindow is a sidecar body, CRC not included, whose one Bit-encoded
// window is a container claiming claim bytes: its block size, raw size and
// record raw length all rewritten.
func lyingWindow(t testing.TB, claim uint32) []byte {
	t.Helper()
	enc, err := Encode(&deflate.Index{
		Form: deflate.FormatGzip, SrcSize: 1 << 20, RawSize: 2000, Members: 1,
		Checkpoints: []deflate.Checkpoint{{Bit: 80}, {Bit: 8000, Out: 1000, Window: datagen.WikiXML(1000, 5)}},
	}, time.Unix(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	m := format.Magic()
	at := bytes.Index(enc, m[:])
	if at < 0 {
		t.Fatal("the window was stored raw")
	}
	binary.LittleEndian.PutUint32(enc[at+17:], claim)
	binary.LittleEndian.PutUint64(enc[at+21:], uint64(claim))
	binary.LittleEndian.PutUint32(enc[at+format.HeaderSize:], claim)
	return enc[:len(enc)-4]
}

// FuzzSidecarDecode feeds Decode arbitrary sidecar bodies with the trailing
// CRC-32 re-stamped over them, so that a mutation reaches the parser behind
// the checksum. Decode either refuses the sidecar with an error wrapping
// ErrSidecar, or returns an index that validates and comes back unchanged
// through Encode and Decode. Either way it allocates in proportion to the
// sidecar: a window decodes to at most 32 KiB and costs at least a container
// header to store.
func FuzzSidecarDecode(f *testing.F) {
	idx, _ := testIndex(f)
	enc, err := Encode(idx, time.Unix(1700000000, 123))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(enc[:len(enc)-4])
	f.Add(lyingWindow(f, 1<<30))
	f.Add(lyingWindow(f, format.MaxBlockSize))
	f.Fuzz(func(t *testing.T, body []byte) {
		data := binary.LittleEndian.AppendUint32(bytes.Clone(body), crc32.ChecksumIEEE(body))
		var (
			idx  *deflate.Index
			meta Meta
			err  error
		)
		// A run over the bound is measured again, up to twice: the heap
		// counters are the process's, and a fuzzing worker has goroutines of
		// its own.
		limit := 256*uint64(len(data)) + 1<<20
		n := uint64(math.MaxUint64)
		for try := 0; try < 3 && n > limit; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			idx, meta, err = Decode(data)
			runtime.ReadMemStats(&after)
			n = min(n, after.TotalAlloc-before.TotalAlloc)
		}
		if n > limit && !race.Enabled {
			t.Fatalf("decoding a %d-byte sidecar allocated %d bytes, want ≤ %d", len(data), n, limit)
		}
		if err != nil {
			if !errors.Is(err, ErrSidecar) {
				t.Fatalf("error %v does not wrap ErrSidecar", err)
			}
			return
		}
		if err := idx.Validate(meta.SrcSize); err != nil {
			t.Fatalf("Decode returned an index that does not validate: %v", err)
		}
		again, err := Encode(idx, time.Unix(0, meta.SrcMtime))
		if err != nil {
			t.Fatalf("Encode of a decoded index: %v", err)
		}
		back, backMeta, err := Decode(again)
		if err != nil {
			t.Fatalf("Decode of a re-encoded index: %v", err)
		}
		if backMeta != meta || back.Form != idx.Form || back.SrcSize != idx.SrcSize || back.RawSize != idx.RawSize ||
			back.Members != idx.Members || len(back.Checkpoints) != len(idx.Checkpoints) {
			t.Fatalf("re-encoded index differs: %+v %+v, was %+v %+v", backMeta, back, meta, idx)
		}
		for i := range idx.Checkpoints {
			a, b := &idx.Checkpoints[i], &back.Checkpoints[i]
			if a.Bit != b.Bit || a.Out != b.Out || !bytes.Equal(a.Window, b.Window) {
				t.Fatalf("checkpoint %d differs after Encode and Decode", i)
			}
		}
	})
}
