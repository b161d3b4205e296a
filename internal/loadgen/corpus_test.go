package loadgen

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gompresso"
)

// A second BuildCorpus over a warm root must skip the work, not just the
// write: every file keeps its mtime. A file whose header does not describe
// the spec's object or that lost its tail is rebuilt to the bytes a cold
// build writes.
func TestBuildCorpusReusesWarmRoot(t *testing.T) {
	dir := t.TempDir()
	spec := CorpusSpec{Objects: 3, MinSize: 24 << 10, MaxSize: 96 << 10, Seed: 5}
	objs, err := BuildCorpus(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	cold := make([][]byte, len(objs))
	old := time.Now().Add(-time.Hour)
	for i, o := range objs {
		path := filepath.Join(dir, o.Name)
		if cold[i], err = os.ReadFile(path); err != nil {
			t.Fatal(err)
		}
		if err := os.Chtimes(path, old, old); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BuildCorpus(dir, spec); err != nil {
		t.Fatal(err)
	}
	for _, o := range objs {
		st, err := os.Stat(filepath.Join(dir, o.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !st.ModTime().Equal(old) {
			t.Fatalf("%s rewritten by a warm rebuild", o.Name)
		}
	}

	// Same length as the real object, so only reading the header tells
	// them apart: byte 6 is the header's DE mode.
	wrong := bytes.Clone(cold[0])
	wrong[6] = byte(gompresso.DEOff)
	stale := map[string][]byte{
		objs[0].Name: wrong,
		objs[1].Name: cold[1][:len(cold[1])/2],
	}
	for name, data := range stale {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := BuildCorpus(dir, spec); err != nil {
		t.Fatal(err)
	}
	for i, o := range objs {
		got, err := os.ReadFile(filepath.Join(dir, o.Name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, cold[i]) {
			t.Fatalf("%s: not the cold build's bytes after the rebuild", o.Name)
		}
	}
	if st, _ := os.Stat(filepath.Join(dir, objs[2].Name)); !st.ModTime().Equal(old) {
		t.Fatalf("%s rewritten though intact", objs[2].Name)
	}
}
