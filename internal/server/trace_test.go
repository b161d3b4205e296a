package server

// The traced request path's budget (PR 20): handler benchmarks that A/B
// tracing in seconds, the allocation guard between the two, and the table
// that holds every error path to one counter increment and one access line.

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gompresso/internal/format"
	"gompresso/internal/race"
)

// discardWriter is a ResponseWriter with no socket behind it.
type discardWriter struct {
	header http.Header
	status int
	n      int64
}

func (d *discardWriter) Header() http.Header  { return d.header }
func (d *discardWriter) WriteHeader(code int) { d.status = code }
func (d *discardWriter) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// hotHandler returns a call that serves one hot 256 KiB range of the
// fixture's indexed container through the server's handler into a
// discarding writer, failing tb if the answer is not the whole range.
func hotHandler(tb testing.TB, o Options) func() {
	tb.Helper()
	const length = 256 << 10
	o.CacheBytes = 8 << 20
	s, err := New(o)
	if err != nil {
		tb.Fatal(err)
	}
	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/corpus.txt.gpz", nil)
	req.Header.Set("Range", "bytes=1000-263143")
	rw := &discardWriter{header: http.Header{}}
	serve := func() {
		clear(rw.header)
		rw.status, rw.n = 0, 0
		h.ServeHTTP(rw, req)
		if rw.status != http.StatusPartialContent || rw.n != length {
			tb.Fatalf("status %d, %d bytes; want 206 and %d", rw.status, rw.n, length)
		}
	}
	serve() // resolves the object and leaves its blocks resident
	return serve
}

func benchmarkHandler(b *testing.B, o Options) {
	o.Root = newFixture(b).root
	serve := hotHandler(b, o)
	b.SetBytes(256 << 10)
	b.ReportAllocs()
	for b.Loop() {
		serve()
	}
}

// BenchmarkHandlerTraced is the production configuration the benchmark's
// serve workloads run: tracing on, the access line rendered into io.Discard.
func BenchmarkHandlerTraced(b *testing.B) {
	benchmarkHandler(b, Options{AccessLog: io.Discard})
}

func BenchmarkHandlerUntraced(b *testing.B) {
	benchmarkHandler(b, Options{NoTrace: true})
}

// Tracing a hot request may allocate the request id and its header slot and
// little else: the access line, the spans and their contexts are all storage
// the pooled trace already owns. The untraced request has a budget of its
// own: admitted without queueing and without a write deadline, it arms no
// shed timer and builds no ResponseController.
func TestTracedHandlerAllocBudget(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under -race")
	}
	root := newFixture(t).root
	traced := testing.AllocsPerRun(200, hotHandler(t, Options{Root: root, AccessLog: io.Discard}))
	untraced := testing.AllocsPerRun(200, hotHandler(t, Options{Root: root, NoTrace: true}))
	t.Logf("allocs per hot request: %.0f traced, %.0f untraced", traced, untraced)
	if traced > untraced+6 {
		t.Fatalf("tracing costs %.0f allocations per request (%.0f traced, %.0f untraced), budget 6",
			traced-untraced, traced, untraced)
	}
	if untraced > 30 {
		t.Fatalf("an untraced hot request makes %.0f allocations, budget 30", untraced)
	}
}

// errClient is a client that has gone away: the first body write fails the
// way a closed connection does, after the 200 is committed.
type errClient struct{ discardWriter }

func (e *errClient) Write([]byte) (int, error) { return 0, context.Canceled }

// Every way an object request can fail is counted once in errors_total and
// logged once, at the level its cause deserves: WARN when the server or the
// object is at fault, INFO when the client is (a 4xx, or a hang-up).
func TestErrorPathsCountedAndLoggedOnce(t *testing.T) {
	type expect struct {
		status       int
		level        string
		verdict, err string
	}
	cases := []struct {
		name  string
		opts  Options                               // Root, AccessLog and Source filled in below
		wrap  func(t *testing.T, src Source) Source // nil: the directory source as it is
		setup func(t *testing.T, fx *fixture, h http.Handler)
		path  string
		rng   string
		rw    http.ResponseWriter // nil: a discardWriter
		want  expect
	}{
		{name: "404", path: "/missing.gpz",
			want: expect{status: 404, level: "INFO"}},
		{name: "416", path: "/corpus.txt.gpz", rng: "bytes=99999999-",
			want: expect{status: 416, level: "INFO"}},
		{name: "502 corrupt", path: "/corpus.txt.gz",
			opts: Options{QuarantineTTL: -1},
			setup: func(t *testing.T, fx *fixture, _ http.Handler) {
				corruptFixtureObject(t, fx, "corpus.txt.gz")
			},
			want: expect{status: 502, level: "WARN", err: "corrupt"}},
		{name: "502 quarantined", path: "/noindex.gpz",
			setup: func(t *testing.T, fx *fixture, h http.Handler) {
				corruptFixtureObject(t, fx, "noindex.gpz")
				h.ServeHTTP(&discardWriter{header: http.Header{}}, httptest.NewRequest("GET", "/noindex.gpz", nil))
			},
			want: expect{status: 502, level: "WARN", verdict: "quarantined"}},
		// The container magic with a header that does not parse is corrupt
		// like a bad block, not an unsupported format.
		{name: "502 malformed header", path: "/bad.gpz",
			setup: func(t *testing.T, fx *fixture, _ http.Handler) {
				m := format.Magic()
				data := append(m[:], "garbage where the version and the block geometry belong"...)
				if err := os.WriteFile(filepath.Join(fx.root, "bad.gpz"), data, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			want: expect{status: 502, level: "WARN", verdict: "quarantined", err: "corrupt"}},
		{name: "503 shed", path: "/corpus.txt.gpz",
			opts: Options{MaxInFlight: 1, QueueWait: time.Millisecond},
			setup: func(t *testing.T, _ *fixture, h http.Handler) {
				holdLimiterSlot(t, h)
			},
			want: expect{status: 503, level: "WARN", verdict: "shed"}},
		{name: "503 deadline", path: "/corpus.txt.gz",
			opts: Options{RequestTimeout: 30 * time.Millisecond},
			wrap: func(t *testing.T, src Source) Source {
				return NewFaultSource(src, mustScript(t, "corpus.txt.gz:latency=100ms#1000"))
			},
			want: expect{status: 503, level: "WARN", err: "deadline"}},
		{name: "client cancel", path: "/corpus.txt.gpz",
			rw:   &errClient{discardWriter{header: http.Header{}}},
			want: expect{status: 200, level: "INFO", err: "canceled"}},
		{name: "mid-body failure", path: "/corpus.txt.gpz",
			setup: func(t *testing.T, fx *fixture, _ http.Handler) {
				corruptFixtureObject(t, fx, "corpus.txt.gpz")
			},
			want: expect{status: 200, level: "WARN", verdict: "quarantined", err: "corrupt"}},
		{name: "handler panic", path: "/corpus.txt.gpz",
			wrap: func(_ *testing.T, src Source) Source {
				return &panicSource{Source: src, name: "corpus.txt.gpz"}
			},
			want: expect{status: 500, level: "WARN", err: "panic"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fx := newFixture(t)
			var log syncBuffer
			o := tc.opts
			o.Root, o.AccessLog = fx.root, &log
			o.Source = NewDirSource(fx.root)
			if tc.wrap != nil {
				o.Source = tc.wrap(t, o.Source)
			}
			s, err := New(o)
			if err != nil {
				t.Fatal(err)
			}
			h := s.Handler()
			if tc.setup != nil {
				tc.setup(t, fx, h)
			}
			errorsBefore, linesBefore := s.mErrors.Load(), strings.Count(log.String(), "\n")

			req := httptest.NewRequest(http.MethodGet, tc.path, nil)
			if tc.rng != "" {
				req.Header.Set("Range", tc.rng)
			}
			rw := tc.rw
			if rw == nil {
				rw = &discardWriter{header: http.Header{}}
			}
			h.ServeHTTP(rw, req)

			if got := s.mErrors.Load() - errorsBefore; got != 1 {
				t.Errorf("errors_total moved by %d, want exactly 1", got)
			}
			lines := strings.Split(strings.TrimSuffix(log.String(), "\n"), "\n")[linesBefore:]
			if len(lines) != 1 {
				t.Fatalf("%d access lines for one request, want 1:\n%s", len(lines), strings.Join(lines, "\n"))
			}
			var rec struct {
				Level   string `json:"level"`
				ID      string `json:"id"`
				Status  int    `json:"status"`
				Verdict string `json:"verdict"`
				Err     string `json:"err"`
			}
			if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
				t.Fatalf("access line is not JSON: %v\n%s", err, lines[0])
			}
			got := expect{rec.Status, rec.Level, rec.Verdict, rec.Err}
			if got != tc.want {
				t.Errorf("access line says %+v, want %+v\n%s", got, tc.want, lines[0])
			}
			if id := rw.Header().Get("X-Request-Id"); id == "" || id != rec.ID {
				t.Errorf("X-Request-Id %q, access line id %q", id, rec.ID)
			}
		})
	}
}

// holdLimiterSlot parks a request inside the decode section of a server
// with MaxInFlight 1 — its client never takes the body — until the test
// ends.
func holdLimiterSlot(t *testing.T, h http.Handler) {
	t.Helper()
	entered, release := make(chan struct{}), make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		h.ServeHTTP(&stalledClient{discardWriter{header: http.Header{}}, entered, release},
			httptest.NewRequest(http.MethodGet, "/corpus.txt.gpz", nil))
	}()
	t.Cleanup(func() { close(release); <-done })
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the slot-holding request never reached its body")
	}
}

// stalledClient blocks in its first body write until released.
type stalledClient struct {
	discardWriter
	entered, release chan struct{}
}

func (c *stalledClient) Write(p []byte) (int, error) {
	select {
	case <-c.entered:
	default:
		close(c.entered)
		<-c.release
	}
	return len(p), nil
}
