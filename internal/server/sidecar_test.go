package server

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gompresso/internal/deflate"
	"gompresso/internal/gzidx"
)

// rangeBody fetches one byte range and returns the body after checking
// the status code.
func rangeBody(t *testing.T, url string, off, length int64, wantStatus int) []byte {
	t.Helper()
	resp := get(t, url, map[string]string{
		"Range": fmt.Sprintf("bytes=%d-%d", off, off+length-1),
	})
	if resp.StatusCode != wantStatus {
		t.Fatalf("range [%d,%d): status %d, want %d", off, off+length, resp.StatusCode, wantStatus)
	}
	return body(t, resp)
}

// TestForeignPromotion: the first request for an object without block
// access — a .gz (one counting decode, seek index captured along the way)
// or a trailer-less container (one scan of its block section) — pays
// exactly one discovery pass, and its body and every later one come from
// the block machinery: the second GET of a range raises cache hits, with
// sequential_decodes_total flat.
func TestForeignPromotion(t *testing.T) {
	for _, name := range []string{"corpus.txt.gz", "noindex.gpz"} {
		fx := newFixture(t)
		_, ts := startServer(t, Options{Root: fx.root, CacheBytes: 8 << 20, IndexSpacing: 32 << 10})

		cold := rangeBody(t, ts.URL+"/"+name, 1000, 5000, http.StatusPartialContent)
		if !bytes.Equal(cold, fx.src[1000:6000]) {
			t.Fatalf("%s: cold ranged body differs", name)
		}
		m := metricsJSON(t, ts.URL)
		if m["sequential_decodes_total"] != 1 {
			t.Fatalf("%s: cold request ran %v discovery passes, want 1", name, m["sequential_decodes_total"])
		}
		if want := map[string]float64{"corpus.txt.gz": 1}[name]; m["sidecar_builds_total"] != want {
			t.Fatalf("%s: cold request: %v sidecar builds, want %v", name, m["sidecar_builds_total"], want)
		}

		// Warm: random-access path only — the discovery counter must not move.
		for _, off := range []int64{0, 1000, 100 << 10, 250 << 10} {
			warm := rangeBody(t, ts.URL+"/"+name, off, 4096, http.StatusPartialContent)
			if !bytes.Equal(warm, fx.src[off:off+4096]) {
				t.Fatalf("%s: warm range at %d differs", name, off)
			}
		}
		after := metricsJSON(t, ts.URL)
		if after["sequential_decodes_total"] != 1 {
			t.Fatalf("%s: warm ranges re-ran discovery: %v", name, after["sequential_decodes_total"])
		}
		if after["cache_hits_total"] <= m["cache_hits_total"] {
			t.Fatalf("%s: repeated range did not hit the block cache: %v -> %v",
				name, m["cache_hits_total"], after["cache_hits_total"])
		}
	}
}

// TestForeignConcurrentCold: many concurrent first requests race the
// discovery pass; the singleflight token must keep it to one, every body
// must be correct, and nothing may leak.
func TestForeignConcurrentCold(t *testing.T) {
	for _, name := range []string{"corpus.txt.gz", "noindex.gpz"} {
		fx := newFixture(t)
		_, ts := startServer(t, Options{Root: fx.root, CacheBytes: 8 << 20, IndexSpacing: 32 << 10})

		noLeaks(t, func() {
			var wg sync.WaitGroup
			errs := make(chan error, 16)
			for i := 0; i < 16; i++ {
				off := int64(i * 16 << 10)
				wg.Add(1)
				go func() {
					defer wg.Done()
					resp := get(t, ts.URL+"/"+name, map[string]string{
						"Range": fmt.Sprintf("bytes=%d-%d", off, off+1023),
					})
					b := body(t, resp)
					if resp.StatusCode != http.StatusPartialContent {
						errs <- fmt.Errorf("%s: status %d at %d", name, resp.StatusCode, off)
						return
					}
					if !bytes.Equal(b, fx.src[off:off+1024]) {
						errs <- fmt.Errorf("%s: body differs at %d", name, off)
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
		if m := metricsJSON(t, ts.URL); m["sequential_decodes_total"] != 1 {
			t.Fatalf("%s: %v discovery passes across 16 concurrent cold requests, want 1",
				name, m["sequential_decodes_total"])
		}
	}
}

// TestSidecarPersistence: with an index directory configured the first
// decode persists a sidecar, and a fresh server over the same root loads
// it — serving ranges without ever running a sequential decode.
func TestSidecarPersistence(t *testing.T) {
	fx := newFixture(t)
	idxDir := t.TempDir()
	_, ts := startServer(t, Options{Root: fx.root, IndexDir: idxDir, IndexSpacing: 32 << 10})

	rangeBody(t, ts.URL+"/corpus.txt.gz", 0, 1024, http.StatusPartialContent)
	sc := filepath.Join(idxDir, "corpus.txt.gz"+gzidx.Ext)
	if _, err := os.Stat(sc); err != nil {
		t.Fatalf("sidecar not persisted: %v", err)
	}

	// Fresh server, same index dir: the discovery pass promotes from the
	// sidecar, without a decode.
	_, ts2 := startServer(t, Options{Root: fx.root, IndexDir: idxDir})
	got := rangeBody(t, ts2.URL+"/corpus.txt.gz", 200<<10, 8192, http.StatusPartialContent)
	if !bytes.Equal(got, fx.src[200<<10:200<<10+8192]) {
		t.Fatal("range served from persisted sidecar differs")
	}
	m := metricsJSON(t, ts2.URL)
	if m["sequential_decodes_total"] != 0 {
		t.Fatalf("warm-sidecar server ran %v sequential decodes, want 0", m["sequential_decodes_total"])
	}
	if m["sidecar_loads_total"] != 1 {
		t.Fatalf("%v sidecar loads, want 1", m["sidecar_loads_total"])
	}
}

// shipSidecar builds corpus.txt.gz's sidecar offline and writes it next to
// the object, as `gompresso index` does.
func shipSidecar(t *testing.T, fx *fixture) {
	t.Helper()
	name := filepath.Join(fx.root, "corpus.txt.gz")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := gzidx.Build(context.Background(), data, deflate.FormatGzip, 32<<10, deflate.Options{Workers: 1})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := gzidx.Encode(idx, st.ModTime())
	if err != nil {
		t.Fatal(err)
	}
	if err := gzidx.WriteFileAtomic(name+gzidx.Ext, enc); err != nil {
		t.Fatal(err)
	}
}

// TestSidecarAlongsideSource: a sidecar shipped next to the object (built
// offline, IndexDir unset) is found through the Source seam.
func TestSidecarAlongsideSource(t *testing.T) {
	fx := newFixture(t)
	shipSidecar(t, fx)

	_, ts := startServer(t, Options{Root: fx.root})
	got := rangeBody(t, ts.URL+"/corpus.txt.gz", 123, 4567, http.StatusPartialContent)
	if !bytes.Equal(got, fx.src[123:123+4567]) {
		t.Fatal("range served from source sidecar differs")
	}
	m := metricsJSON(t, ts.URL)
	if m["sequential_decodes_total"] != 0 || m["sidecar_loads_total"] != 1 {
		t.Fatalf("seq=%v loads=%v, want 0/1", m["sequential_decodes_total"], m["sidecar_loads_total"])
	}
}

// countingSource counts the files opened through it.
type countingSource struct {
	Source
	opens atomic.Int64
}

func (c *countingSource) Open(name string) (File, error) {
	c.opens.Add(1)
	return c.Source.Open(name)
}

// TestColdObjectResolvedOnce: concurrent cold requests for a .gz with a
// sidecar beside it open the object and the sidecar once each. Everything
// that reads an object runs in the one discovery pass behind the token; a
// request that misses the registry opens nothing of its own.
func TestColdObjectResolvedOnce(t *testing.T) {
	fx := newFixture(t)
	shipSidecar(t, fx)
	src := &countingSource{Source: NewDirSource(fx.root)}
	_, ts := startServer(t, Options{Root: fx.root, Source: src})

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		off := int64(i * 16 << 10)
		wg.Add(1)
		go func() {
			defer wg.Done()
			req, _ := http.NewRequest(http.MethodGet, ts.URL+"/corpus.txt.gz", nil)
			req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+1023))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			if b, err := io.ReadAll(resp.Body); err != nil || resp.StatusCode != http.StatusPartialContent || !bytes.Equal(b, fx.src[off:off+1024]) {
				t.Errorf("range at %d: status %d, %d bytes, %v", off, resp.StatusCode, len(b), err)
			}
		}()
	}
	wg.Wait()
	m := metricsJSON(t, ts.URL)
	if opens := src.opens.Load(); opens != 2 || m["sidecar_loads_total"] != 1 || m["sequential_decodes_total"] != 0 {
		t.Fatalf("16 cold requests: %d opens, %v sidecar loads, %v sequential decodes; want 2, 1, 0",
			opens, m["sidecar_loads_total"], m["sequential_decodes_total"])
	}
}

// TestSidecarCorruptRebuilt: a damaged sidecar must be ignored (fall back
// to the counting decode) and then replaced with a valid one.
func TestSidecarCorruptRebuilt(t *testing.T) {
	fx := newFixture(t)
	idxDir := t.TempDir()
	sc := filepath.Join(idxDir, "corpus.txt.gz"+gzidx.Ext)
	if err := os.WriteFile(sc, []byte("GZX1 this is not a sidecar"), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Options{Root: fx.root, IndexDir: idxDir, IndexSpacing: 32 << 10})
	got := rangeBody(t, ts.URL+"/corpus.txt.gz", 50<<10, 2048, http.StatusPartialContent)
	if !bytes.Equal(got, fx.src[50<<10:50<<10+2048]) {
		t.Fatal("body differs with corrupt sidecar present")
	}
	m := metricsJSON(t, ts.URL)
	if m["sequential_decodes_total"] != 1 {
		t.Fatalf("%v sequential decodes, want 1 (corrupt sidecar must not be trusted)",
			m["sequential_decodes_total"])
	}
	if m["sidecar_errors_total"] < 1 {
		t.Fatalf("corrupt sidecar not counted: %v", m["sidecar_errors_total"])
	}
	// The bad file was atomically replaced by the rebuild.
	st, err := os.Stat(filepath.Join(fx.root, "corpus.txt.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gzidx.LoadFile(sc, st.Size(), st.ModTime()); err != nil {
		t.Fatalf("rebuilt sidecar still invalid: %v", err)
	}
}

// TestSidecarStaleReplaced: a sidecar describing an older generation of
// the source (different mtime) must be ignored and replaced.
func TestSidecarStaleReplaced(t *testing.T) {
	fx := newFixture(t)
	idxDir := t.TempDir()
	name := filepath.Join(fx.root, "corpus.txt.gz")
	data, err := os.ReadFile(name)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := gzidx.Build(context.Background(), data, deflate.FormatGzip, 32<<10, deflate.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Encode against a past mtime, then age the source past it: the
	// sidecar is structurally valid but stale.
	old := time.Now().Add(-time.Hour)
	enc, err := gzidx.Encode(idx, old)
	if err != nil {
		t.Fatal(err)
	}
	sc := filepath.Join(idxDir, "corpus.txt.gz"+gzidx.Ext)
	if err := gzidx.WriteFileAtomic(sc, enc); err != nil {
		t.Fatal(err)
	}

	_, ts := startServer(t, Options{Root: fx.root, IndexDir: idxDir, IndexSpacing: 32 << 10})
	got := rangeBody(t, ts.URL+"/corpus.txt.gz", 0, 4096, http.StatusPartialContent)
	if !bytes.Equal(got, fx.src[:4096]) {
		t.Fatal("body differs with stale sidecar present")
	}
	m := metricsJSON(t, ts.URL)
	if m["sequential_decodes_total"] != 1 {
		t.Fatalf("stale sidecar was trusted: %v sequential decodes", m["sequential_decodes_total"])
	}
	st, err := os.Stat(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := gzidx.LoadFile(sc, st.Size(), st.ModTime()); err != nil {
		t.Fatalf("stale sidecar not replaced: %v", err)
	}
}
