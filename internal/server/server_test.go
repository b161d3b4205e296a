package server

import (
	"bytes"
	"compress/gzip"
	"compress/zlib"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"gompresso"
	"gompresso/internal/datagen"
)

// compress returns src as a Gompresso/Byte container made with opts.
func compress(t testing.TB, src []byte, opts ...gompresso.Option) []byte {
	t.Helper()
	c, err := gompresso.New(append(opts, gompresso.WithVariant(gompresso.VariantByte))...)
	if err != nil {
		t.Fatal(err)
	}
	comp, _, err := c.Compress(src)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// fixture builds a served root: the same corpus as an indexed container,
// an unindexed container, a .gz, and a .zz, plus junk that must 415.
type fixture struct {
	root string
	src  []byte
}

func newFixture(t testing.TB) *fixture {
	t.Helper()
	root := t.TempDir()
	src := datagen.WikiXML(300<<10, 7)

	write := func(name string, data []byte) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	comp := compress(t, src, gompresso.WithBlockSize(64<<10), gompresso.WithIndex(true))
	write("corpus.txt.gpz", comp)
	write("noindex.gpz", compress(t, src, gompresso.WithBlockSize(64<<10)))

	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(src)
	zw.Close()
	write("corpus.txt.gz", gz.Bytes())

	var zz bytes.Buffer
	zzw := zlib.NewWriter(&zz)
	zzw.Write(src)
	zzw.Close()
	write("corpus.zz", zz.Bytes())

	write("junk.bin", []byte{0xde, 0xad, 0xbe, 0xef, 0, 1, 2, 3})
	if err := os.Mkdir(filepath.Join(root, "sub"), 0o755); err != nil {
		t.Fatal(err)
	}
	write(filepath.Join("sub", "nested.gpz"), comp)
	return &fixture{root: root, src: src}
}

func startServer(t *testing.T, o Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func get(t *testing.T, url string, hdr map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func body(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestServeFullAndRanges(t *testing.T) {
	fx := newFixture(t)
	for _, cache := range []int64{0, 8 << 20} {
		_, ts := startServer(t, Options{Root: fx.root, CacheBytes: cache})
		for _, name := range []string{"corpus.txt.gpz", "noindex.gpz", "corpus.txt.gz", "corpus.zz", "sub/nested.gpz"} {
			url := ts.URL + "/" + name
			resp := get(t, url, nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("cache=%d %s: status %d", cache, name, resp.StatusCode)
			}
			if got := resp.Header.Get("Accept-Ranges"); got != "bytes" {
				t.Fatalf("%s: Accept-Ranges = %q", name, got)
			}
			if got := resp.ContentLength; got != int64(len(fx.src)) {
				t.Fatalf("%s: Content-Length = %d, want %d", name, got, len(fx.src))
			}
			if b := body(t, resp); !bytes.Equal(b, fx.src) {
				t.Fatalf("cache=%d %s: full body mismatch (%d bytes)", cache, name, len(b))
			}

			// Ranges over the decompressed stream: interior, block-crossing,
			// suffix, open-ended, single byte, clamped end.
			size := len(fx.src)
			ranges := []struct {
				spec     string
				off, end int // inclusive end
			}{
				{"bytes=0-99", 0, 99},
				{"bytes=65535-65536", 65535, 65536}, // block boundary
				{"bytes=5000-200000", 5000, 200000}, // multi-block
				{fmt.Sprintf("bytes=%d-", size-777), size - 777, size - 1},
				{"bytes=-512", size - 512, size - 1},
				{fmt.Sprintf("bytes=100-%d", size+5000), 100, size - 1}, // clamp
				{fmt.Sprintf("bytes=%d-%d", size-1, size-1), size - 1, size - 1},
			}
			for _, rg := range ranges {
				resp := get(t, url, map[string]string{"Range": rg.spec})
				if resp.StatusCode != http.StatusPartialContent {
					t.Fatalf("%s %s: status %d", name, rg.spec, resp.StatusCode)
				}
				wantCR := fmt.Sprintf("bytes %d-%d/%d", rg.off, rg.end, size)
				if got := resp.Header.Get("Content-Range"); got != wantCR {
					t.Fatalf("%s %s: Content-Range %q, want %q", name, rg.spec, got, wantCR)
				}
				if b := body(t, resp); !bytes.Equal(b, fx.src[rg.off:rg.end+1]) {
					t.Fatalf("cache=%d %s %s: range body mismatch", cache, name, rg.spec)
				}
			}
		}
	}
}

func TestHead(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root})
	for _, name := range []string{"corpus.txt.gpz", "corpus.txt.gz"} {
		resp, err := http.Head(ts.URL + "/" + name)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", name, resp.StatusCode)
		}
		if resp.ContentLength != int64(len(fx.src)) {
			t.Fatalf("%s: HEAD Content-Length = %d, want %d", name, resp.ContentLength, len(fx.src))
		}
		if b := body(t, resp); len(b) != 0 {
			t.Fatalf("%s: HEAD returned a body", name)
		}
		if resp.Header.Get("ETag") == "" || resp.Header.Get("Last-Modified") == "" {
			t.Fatalf("%s: missing validators", name)
		}
	}
	// Content-Type from the name under the compression suffix.
	resp, err := http.Head(ts.URL + "/corpus.txt.gz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
}

// Conditional requests: matching validators revalidate with 304 (no
// body, no decode); Range is ignored on HEAD per RFC 9110.
func TestConditionalAndHeadRange(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root})
	url := ts.URL + "/corpus.txt.gpz"
	probe := get(t, url, nil)
	body(t, probe)
	etag := probe.Header.Get("ETag")
	lastMod := probe.Header.Get("Last-Modified")

	for _, hdr := range []map[string]string{
		{"If-None-Match": etag},
		{"If-None-Match": `"other", ` + etag},
		{"If-None-Match": "*"},
		{"If-Modified-Since": lastMod},
	} {
		resp := get(t, url, hdr)
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("%v: status %d, want 304", hdr, resp.StatusCode)
		}
		if b := body(t, resp); len(b) != 0 {
			t.Fatalf("%v: 304 carried a body", hdr)
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("%v: 304 lost the validator", hdr)
		}
	}
	for _, hdr := range []map[string]string{
		{"If-None-Match": `"stale-etag"`},
		{"If-Modified-Since": time.Now().Add(-24 * time.Hour).UTC().Format(http.TimeFormat)},
	} {
		resp := get(t, url, hdr)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%v: status %d, want 200", hdr, resp.StatusCode)
		}
		if b := body(t, resp); !bytes.Equal(b, fx.src) {
			t.Fatalf("%v: body mismatch", hdr)
		}
	}

	// HEAD with Range: 200 and the full length, never 206.
	req, _ := http.NewRequest(http.MethodHead, url, nil)
	req.Header.Set("Range", "bytes=0-9")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(fx.src)) {
		t.Fatalf("HEAD+Range: status %d len %d, want 200 %d", resp.StatusCode, resp.ContentLength, len(fx.src))
	}
	if resp.Header.Get("Content-Range") != "" {
		t.Fatal("HEAD+Range: Content-Range set")
	}
}

func TestRangeEdgeCases(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root})
	url := ts.URL + "/corpus.txt.gpz"
	size := len(fx.src)

	// Unsatisfiable: 416 with the size in Content-Range.
	for _, spec := range []string{fmt.Sprintf("bytes=%d-", size), "bytes=-0", fmt.Sprintf("bytes=%d-%d", size+10, size+20)} {
		resp := get(t, url, map[string]string{"Range": spec})
		if resp.StatusCode != http.StatusRequestedRangeNotSatisfiable {
			t.Fatalf("%s: status %d, want 416", spec, resp.StatusCode)
		}
		if got, want := resp.Header.Get("Content-Range"), fmt.Sprintf("bytes */%d", size); got != want {
			t.Fatalf("%s: Content-Range %q, want %q", spec, got, want)
		}
		resp.Body.Close()
	}
	// Ignorable: syntactically invalid or multi-range → 200 full body.
	for _, spec := range []string{"bytes=abc-def", "frobs=0-5", "bytes=5-2", "bytes=0-5,10-20"} {
		resp := get(t, url, map[string]string{"Range": spec})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", spec, resp.StatusCode)
		}
		if b := body(t, resp); !bytes.Equal(b, fx.src) {
			t.Fatalf("%s: body mismatch", spec)
		}
	}
}

func TestIfRange(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root})
	url := ts.URL + "/corpus.txt.gpz"

	probe := get(t, url, nil)
	body(t, probe)
	etag := probe.Header.Get("ETag")
	lastMod := probe.Header.Get("Last-Modified")

	// Matching validators: range honored.
	for _, v := range []string{etag, lastMod} {
		resp := get(t, url, map[string]string{"Range": "bytes=0-9", "If-Range": v})
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("If-Range %q: status %d, want 206", v, resp.StatusCode)
		}
		if b := body(t, resp); !bytes.Equal(b, fx.src[:10]) {
			t.Fatalf("If-Range %q: body mismatch", v)
		}
	}
	// Mismatched validators: range ignored, full 200.
	old := time.Now().Add(-24 * time.Hour).UTC().Format(http.TimeFormat)
	for _, v := range []string{`"different-etag"`, old, "W/" + etag} {
		resp := get(t, url, map[string]string{"Range": "bytes=0-9", "If-Range": v})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("If-Range %q: status %d, want 200", v, resp.StatusCode)
		}
		if b := body(t, resp); !bytes.Equal(b, fx.src) {
			t.Fatalf("If-Range %q: body mismatch", v)
		}
	}
}

func TestErrors(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root})
	cases := []struct {
		path string
		want int
	}{
		{"/missing.gpz", http.StatusNotFound},
		{"/", http.StatusNotFound},
		{"/sub", http.StatusNotFound},               // directory
		{"/../server_test.go", http.StatusNotFound}, // traversal collapses into the root
		{"/junk.bin", http.StatusUnsupportedMediaType},
	}
	for _, tc := range cases {
		resp := get(t, ts.URL+tc.path, nil)
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("%s: status %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/corpus.txt.gpz", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", resp.StatusCode)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root, CacheBytes: 8 << 20})

	resp := get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || string(body(t, resp)) != "ok\n" {
		t.Fatal("healthz failed")
	}

	// A repeated hot range must show cache hits.
	for i := 0; i < 3; i++ {
		r := get(t, ts.URL+"/corpus.txt.gpz", map[string]string{"Range": "bytes=1000-2000"})
		body(t, r)
	}
	resp = get(t, ts.URL+"/metrics?format=json", nil)
	var m map[string]float64
	if err := json.Unmarshal(body(t, resp), &m); err != nil {
		t.Fatal(err)
	}
	if m["requests_total"] < 3 {
		t.Fatalf("requests_total = %v", m["requests_total"])
	}
	if m["range_requests_total"] < 3 {
		t.Fatalf("range_requests_total = %v", m["range_requests_total"])
	}
	if m["cache_hits_total"] < 2 {
		t.Fatalf("cache_hits_total = %v, want >= 2", m["cache_hits_total"])
	}
	if m["bytes_served_total"] < 3*1001 {
		t.Fatalf("bytes_served_total = %v", m["bytes_served_total"])
	}

	// Text exposition carries the same metrics.
	resp = get(t, ts.URL+"/metrics", nil)
	text := string(body(t, resp))
	for _, want := range []string{"requests_total ", "cache_hit_rate ", "inflight_requests "} {
		if !bytes.Contains([]byte(text), []byte(want)) {
			t.Fatalf("text metrics missing %q:\n%s", want, text)
		}
	}
}

// Concurrent mixed traffic across objects and formats, under the
// concurrency limiter, with the cache churning. Run with -race.
func TestConcurrentRequests(t *testing.T) {
	fx := newFixture(t)
	s, ts := startServer(t, Options{Root: fx.root, CacheBytes: 1 << 20, MaxInFlight: 3})
	names := []string{"corpus.txt.gpz", "noindex.gpz", "corpus.txt.gz", "corpus.zz"}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			r := uint32(seed*2654435761 + 17)
			for i := 0; i < 5; i++ {
				r = r*1664525 + 1013904223
				name := names[r%uint32(len(names))]
				off := int(r>>8) % (len(fx.src) - 1)
				n := 1 + int(r>>20)%4096
				if off+n > len(fx.src) {
					n = len(fx.src) - off
				}
				spec := fmt.Sprintf("bytes=%d-%d", off, off+n-1)
				resp := get(t, ts.URL+"/"+name, map[string]string{"Range": spec})
				if resp.StatusCode != http.StatusPartialContent {
					t.Errorf("%s %s: status %d", name, spec, resp.StatusCode)
					resp.Body.Close()
					return
				}
				b := body(t, resp)
				if !bytes.Equal(b, fx.src[off:off+n]) {
					t.Errorf("%s %s: body mismatch", name, spec)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if st := s.Codec().CacheStats(); !st.Enabled || st.Hits+st.Misses == 0 {
		t.Fatalf("cache saw no traffic: %+v", st)
	}
}

// A client that disconnects mid-body must cancel the request's decode
// and not wedge the limiter.
func TestClientDisconnect(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root, MaxInFlight: 1})
	for i := 0; i < 3; i++ {
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/corpus.txt.gpz", nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.ReadFull(resp.Body, make([]byte, 10))
		resp.Body.Close() // abandon mid-stream
	}
	// The limiter (capacity 1) must still admit a full request.
	done := make(chan []byte, 1)
	go func() {
		resp := get(t, ts.URL+"/corpus.txt.gpz", nil)
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		done <- b
	}()
	select {
	case b := <-done:
		if !bytes.Equal(b, fx.src) {
			t.Fatal("post-disconnect body mismatch")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("limiter wedged after client disconnects")
	}
}

func TestNewValidation(t *testing.T) {
	fx := newFixture(t)
	for _, o := range []Options{
		{Root: filepath.Join(fx.root, "no-such-dir")},
		{Root: filepath.Join(fx.root, "junk.bin")}, // not a directory
		{Root: fx.root, CacheBytes: -1},
		{Root: fx.root, MaxInFlight: -1},
	} {
		if _, err := New(o); err == nil {
			t.Fatalf("Options %+v accepted", o)
		}
	}
}

// A stale object (file replaced in place) must be re-resolved, not
// served from the old resolution — and the old resolution's file must
// close once its last request finishes.
func TestObjectInvalidation(t *testing.T) {
	fx := newFixture(t)
	s, ts := startServer(t, Options{Root: fx.root})
	url := ts.URL + "/corpus.txt.gpz"
	if b := body(t, get(t, url, nil)); !bytes.Equal(b, fx.src) {
		t.Fatal("initial body mismatch")
	}
	s.mu.Lock()
	oldObj := s.objects["corpus.txt.gpz"]
	s.mu.Unlock()
	src2 := datagen.WikiXML(100<<10, 99)
	comp2 := compress(t, src2, gompresso.WithBlockSize(64<<10), gompresso.WithIndex(true))
	p := filepath.Join(fx.root, "corpus.txt.gpz")
	if err := os.WriteFile(p, comp2, 0o644); err != nil {
		t.Fatal(err)
	}
	// Ensure the mtime moves even on coarse filesystems.
	future := time.Now().Add(2 * time.Second)
	os.Chtimes(p, future, future)
	if b := body(t, get(t, url, nil)); !bytes.Equal(b, src2) {
		t.Fatal("stale object served after replacement")
	}
	// The replaced resolution had no in-flight requests, so its file
	// descriptor must be closed (reads on it now fail).
	s.mu.Lock()
	stale, refs := oldObj.stale, oldObj.refs
	s.mu.Unlock()
	if !stale || refs != 0 {
		t.Fatalf("old object stale=%v refs=%d", stale, refs)
	}
	if _, err := oldObj.file.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("stale object's file still open after last release")
	}
}

// eagerEOFSource serves files whose ReadAt reports io.EOF together with
// the final bytes whenever a read ends exactly at the file's size — legal
// per the io.ReaderAt contract, and what some object-store clients do.
type eagerEOFSource struct{ Source }

type eagerEOFFile struct {
	File
	size int64
}

func (s eagerEOFSource) Open(name string) (File, error) {
	f, err := s.Source.Open(name)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	return &eagerEOFFile{File: f, size: st.Size()}, nil
}

func (f *eagerEOFFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	if err == nil && off+int64(n) == f.size {
		err = io.EOF
	}
	return n, err
}

// A source that returns the end-of-input io.EOF eagerly must serve every
// object kind: the header check of a header-only (empty) container, the
// trailer load of an indexed one, the last block of a trailer-less one.
func TestEagerEOFSource(t *testing.T) {
	fx := newFixture(t)
	if err := os.WriteFile(filepath.Join(fx.root, "empty.gpz"), compress(t, nil), 0o644); err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Options{Root: fx.root, CacheBytes: 8 << 20, Source: eagerEOFSource{NewDirSource(fx.root)}})
	for name, want := range map[string][]byte{
		"empty.gpz": {}, "corpus.txt.gpz": fx.src, "noindex.gpz": fx.src, "corpus.txt.gz": fx.src,
	} {
		resp := get(t, ts.URL+"/"+name, nil)
		if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, want) {
			t.Fatalf("%s: status %d, %d bytes (want %d)", name, resp.StatusCode, len(b), len(want))
		}
	}
}
