// Package gzidx persists deflate seek indexes as sidecar files, turning
// arbitrary foreign gzip/zlib streams into randomly-accessible containers
// (the rapidgzip trick): after any full decode has captured checkpoints,
// the sidecar stores each checkpoint's compressed bit offset, decompressed
// offset, and 32 KiB window snapshot (compressed with our own Bit codec),
// guarded by a CRC-32 and staleness metadata keyed to the source's size
// and mtime.
//
// Wire format (GZX1, little-endian):
//
//	magic   "GZX1"
//	u8      version (1)
//	u8      deflate form (gzip/zlib/raw)
//	u16     reserved (0)
//	i64     source compressed size
//	i64     source mtime (UnixNano)
//	i64     decompressed size
//	u32     member count
//	u32     checkpoint count
//	per checkpoint:
//	  i64   compressed bit offset
//	  i64   decompressed offset
//	  u8    window encoding (0 = raw bytes, 1 = Gompresso/Bit container)
//	  u16   window length (decoded)
//	  u32   stored window bytes
//	  ...   stored window
//	u32     CRC-32 (IEEE) of every preceding byte
package gzidx

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"time"

	"gompresso/internal/core"
	"gompresso/internal/deflate"
	"gompresso/internal/format"
)

// Ext is the sidecar file suffix: `object.gz` indexes to `object.gz.gzx`.
const Ext = ".gzx"

const (
	magic   = "GZX1"
	version = 1

	winEncRaw = 0 // window stored verbatim
	winEncBit = 1 // window stored as a Gompresso/Bit container

	maxWindow = 32768

	// MaxSidecar bounds how many bytes a loader will read: windows cap a
	// sidecar at ~32 KiB per megabyte of decompressed data, so even a
	// terabyte-scale object stays far under this. Anything larger is
	// corrupt or hostile.
	MaxSidecar = 256 << 20
)

// ErrSidecar is wrapped by every malformed- or mismatched-sidecar failure,
// so callers can treat "bad sidecar" uniformly (ignore and rebuild) while
// still logging the specific cause.
var ErrSidecar = errors.New("invalid seek-index sidecar")

func badf(msg string, args ...any) error {
	return fmt.Errorf("gzidx: %w: %s", ErrSidecar, fmt.Sprintf(msg, args...))
}

// Meta is the staleness key stored alongside the index: the source file's
// size and mtime at build time. A sidecar whose Meta disagrees with the
// live source must be ignored and rebuilt.
type Meta struct {
	SrcSize  int64
	SrcMtime int64 // UnixNano
}

// Stale reports whether the sidecar no longer describes a source of the
// given size and mtime.
func (m Meta) Stale(size int64, mtime time.Time) bool {
	return m.SrcSize != size || m.SrcMtime != mtime.UnixNano()
}

// Build runs a full decode of data purely to capture an index: the offline
// path (`gompresso index`) and the daemon's discovery pass over a foreign
// object, which cancels it through ctx.
func Build(ctx context.Context, data []byte, form deflate.Format, spacing int64, opt deflate.Options) (*deflate.Index, error) {
	r, err := deflate.NewReaderBytes(ctx, data, form, opt)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	if err := r.CollectIndex(spacing); err != nil {
		return nil, err
	}
	if _, err := r.WriteTo(io.Discard); err != nil {
		return nil, err
	}
	return r.Index()
}

// Encode serializes idx with staleness metadata into sidecar wire format.
// Windows are compressed with the Bit codec when that wins, stored raw
// otherwise.
func Encode(idx *deflate.Index, srcMtime time.Time) ([]byte, error) {
	if err := idx.Validate(idx.SrcSize); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 40+len(idx.Checkpoints)*256)
	buf = append(buf, magic...)
	buf = append(buf, version, byte(idx.Form), 0, 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(idx.SrcSize))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(srcMtime.UnixNano()))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(idx.RawSize))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(idx.Members))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(idx.Checkpoints)))
	for i := range idx.Checkpoints {
		cp := &idx.Checkpoints[i]
		if len(cp.Window) > maxWindow {
			return nil, badf("checkpoint %d window %d bytes", i, len(cp.Window))
		}
		enc, stored := byte(winEncRaw), cp.Window
		if len(cp.Window) > 0 {
			comp, _, err := core.Compress(cp.Window, core.Options{Variant: format.VariantBit, Workers: 1})
			if err == nil && len(comp) < len(cp.Window) {
				enc, stored = winEncBit, comp
			}
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Bit))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(cp.Out))
		buf = append(buf, enc)
		buf = binary.LittleEndian.AppendUint16(buf, uint16(len(cp.Window)))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(stored)))
		buf = append(buf, stored...)
	}
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	return buf, nil
}

// Decode parses a sidecar, verifying the trailing CRC and the decoded
// index's internal consistency. All failures wrap ErrSidecar.
func Decode(data []byte) (*deflate.Index, Meta, error) {
	var meta Meta
	if len(data) < 44 || string(data[:4]) != magic {
		return nil, meta, badf("missing magic")
	}
	if data[4] != version {
		return nil, meta, badf("unknown version %d", data[4])
	}
	body, tail := data[:len(data)-4], data[len(data)-4:]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(tail) {
		return nil, meta, badf("checksum mismatch")
	}
	idx := &deflate.Index{Form: deflate.Format(data[5])}
	meta.SrcSize = int64(binary.LittleEndian.Uint64(data[8:]))
	meta.SrcMtime = int64(binary.LittleEndian.Uint64(data[16:]))
	idx.SrcSize = meta.SrcSize
	idx.RawSize = int64(binary.LittleEndian.Uint64(data[24:]))
	idx.Members = int(binary.LittleEndian.Uint32(data[32:]))
	n := binary.LittleEndian.Uint32(data[36:])
	if n > uint32(len(body)/21) { // 21 bytes is the minimum checkpoint record
		return nil, meta, badf("checkpoint count %d larger than sidecar", n)
	}
	idx.Checkpoints = make([]deflate.Checkpoint, n)
	off := 40
	for i := range idx.Checkpoints {
		if off+23 > len(body) {
			return nil, meta, badf("checkpoint %d truncated", i)
		}
		cp := &idx.Checkpoints[i]
		cp.Bit = int64(binary.LittleEndian.Uint64(body[off:]))
		cp.Out = int64(binary.LittleEndian.Uint64(body[off+8:]))
		enc := body[off+16]
		wlen := int(binary.LittleEndian.Uint16(body[off+17:]))
		clen := int(binary.LittleEndian.Uint32(body[off+19:]))
		off += 23
		if wlen > maxWindow || clen > len(body)-off {
			return nil, meta, badf("checkpoint %d window fields out of range", i)
		}
		stored := body[off : off+clen]
		off += clen
		switch enc {
		case winEncRaw:
			if clen != wlen {
				return nil, meta, badf("checkpoint %d raw window length mismatch", i)
			}
			cp.Window = append([]byte(nil), stored...)
		case winEncBit:
			// The container's header sizes the decode's output: hold it to
			// the window before anything is allocated.
			if h, err := format.ParseHeader(stored); err != nil || h.RawSize != uint64(wlen) {
				return nil, meta, badf("checkpoint %d window container does not hold %d bytes", i, wlen)
			}
			win, err := core.DecompressContext(context.TODO(), stored, 1) // Decode takes no ctx; a window is one block
			if err != nil {
				return nil, meta, badf("checkpoint %d window: %v", i, err)
			}
			if len(win) != wlen {
				return nil, meta, badf("checkpoint %d window decoded to %d bytes, want %d", i, len(win), wlen)
			}
			cp.Window = win
		default:
			return nil, meta, badf("checkpoint %d unknown window encoding %d", i, enc)
		}
	}
	if off != len(body) {
		return nil, meta, badf("%d trailing bytes", len(body)-off)
	}
	if err := idx.Validate(meta.SrcSize); err != nil {
		return nil, meta, fmt.Errorf("gzidx: %w: %w", ErrSidecar, err)
	}
	return idx, meta, nil
}

// WriteFileAtomic persists an encoded sidecar: parents created, written to
// a temp file in the destination directory, fsynced, then renamed into
// place so readers never observe a partial sidecar.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile loads the sidecar at path for a source of the given size and
// mtime. A missing file returns an error satisfying os.IsNotExist; a
// present-but-unusable sidecar wraps ErrSidecar.
func LoadFile(path string, srcSize int64, srcMtime time.Time) (*deflate.Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return Load(f, st.Size(), srcSize, srcMtime)
}

// Load reads a size-byte sidecar from r, decodes it, and validates it
// against the live source's size and mtime.
func Load(r io.Reader, size, srcSize int64, srcMtime time.Time) (*deflate.Index, error) {
	if size > MaxSidecar {
		return nil, badf("sidecar is %d bytes", size)
	}
	data := make([]byte, size)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, err
	}
	idx, meta, err := Decode(data)
	if err != nil {
		return nil, err
	}
	if meta.Stale(srcSize, srcMtime) {
		return nil, badf("stale: built for size=%d mtime=%d", meta.SrcSize, meta.SrcMtime)
	}
	return idx, nil
}
