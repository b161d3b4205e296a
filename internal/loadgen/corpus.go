package loadgen

import (
	"fmt"
	"math"
	"os"
	"path/filepath"

	"gompresso"
	"gompresso/internal/datagen"
)

// Object is one corpus member as the harness addresses it: a served
// name and its decompressed size (the coordinate space Range headers
// select over).
type Object struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// CorpusSpec describes a generated multi-object corpus. Everything
// derives from the seed, so two boxes given the same spec build
// byte-identical corpora — the remote-target mode depends on this: the
// serving box materializes the corpus with BuildCorpus, the load box
// reconstructs the same Objects list with SpecObjects and never reads
// the files at all.
type CorpusSpec struct {
	Objects int    `json:"objects"` // object count (default 32)
	MinSize int64  `json:"min_size"`
	MaxSize int64  `json:"max_size"`
	Seed    uint64 `json:"seed"`
	BlockKB int    `json:"block_kb"` // container block size (default 64)
}

func (s *CorpusSpec) normalize() {
	if s.Objects <= 0 {
		s.Objects = 32
	}
	if s.MinSize <= 0 {
		s.MinSize = 64 << 10
	}
	if s.MaxSize < s.MinSize {
		s.MaxSize = 2 << 20
	}
	if s.MaxSize < s.MinSize {
		s.MaxSize = s.MinSize
	}
	if s.BlockKB <= 0 {
		s.BlockKB = 64
	}
}

// SpecObjects returns the object list the spec implies without touching
// disk: names, and decompressed sizes drawn log-uniformly in
// [MinSize, MaxSize] — a few big objects, many small ones, like any
// real object store.
func SpecObjects(spec CorpusSpec) []Object {
	spec.normalize()
	r := newRNG(spec.Seed ^ 0xc0ffee)
	objs := make([]Object, spec.Objects)
	ratio := math.Log(float64(spec.MaxSize) / float64(spec.MinSize))
	for i := range objs {
		size := int64(float64(spec.MinSize) * math.Exp(r.float()*ratio))
		if size > spec.MaxSize {
			size = spec.MaxSize
		}
		objs[i] = Object{Name: fmt.Sprintf("lt-%04d.gpz", i), Size: size}
	}
	return objs
}

// BuildCorpus materializes the spec's objects under dir as indexed
// Gompresso containers (the primary random-access serving path) filled
// with compressible WikiXML text, and returns the object list. Files an
// earlier run of the same spec left behind are reused — re-running
// against a warm root only pays generation and compression for what's
// missing.
func BuildCorpus(dir string, spec CorpusSpec) ([]Object, error) {
	spec.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("loadgen: corpus dir: %w", err)
	}
	codec, err := gompresso.New(
		gompresso.WithVariant(gompresso.VariantBit),
		gompresso.WithDE(gompresso.DEStrict),
		gompresso.WithBlockSize(spec.BlockKB<<10),
		gompresso.WithIndex(true),
	)
	if err != nil {
		return nil, fmt.Errorf("loadgen: corpus codec: %w", err)
	}
	objs := SpecObjects(spec)
	for i, o := range objs {
		path := filepath.Join(dir, o.Name)
		if materialized(codec, path, o, spec) {
			continue
		}
		raw := datagen.WikiXML(int(o.Size), spec.Seed+uint64(i)*0x9e37+1)
		comp, _, err := codec.Compress(raw)
		if err != nil {
			return nil, fmt.Errorf("loadgen: compress %s: %w", o.Name, err)
		}
		if err := os.WriteFile(path, comp, 0o644); err != nil {
			return nil, fmt.Errorf("loadgen: write %s: %w", o.Name, err)
		}
	}
	return objs, nil
}

// materialized reports whether path already holds the container
// BuildCorpus would write for o: it opens for random access — a header and
// an index trailer that agree with the file size, which a write an earlier
// run did not finish cannot show — and its header carries o's size and the
// spec's encoding. Opening an intact object reads its two ends, not its
// blocks.
func materialized(codec *gompresso.Codec, path string, o Object, spec CorpusSpec) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return false
	}
	ra, err := codec.NewReaderAt(f, st.Size())
	if err != nil {
		return false
	}
	h := ra.Header()
	return int64(h.RawSize) == o.Size && h.Variant == gompresso.VariantBit &&
		h.DEMode == gompresso.DEStrict && int(h.BlockSize) == spec.BlockKB<<10
}
