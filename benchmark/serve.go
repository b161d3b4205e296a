package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"gompresso"
	"gompresso/internal/server"
)

// serveWorkload is serve-hot and serve-cold: one ranged GET per op over
// loopback, on one keep-alive connection, to a server.Server running its
// production defaults (tracing on, access log to io.Discard). The two
// differ in CacheBytes only.
type serveWorkload struct {
	name       string
	seed       uint64
	sz         sizes
	tick       func()
	workDir    string
	cacheBytes int64
	minHitRate float64 // the run is invalid below this timed-phase hit rate

	objs  []*object
	root  string
	srv   *server.Server
	ts    *httptest.Server
	sched []request
	body  []byte // reused response buffer, one byte longer than any range

	// What the last Do received, for Check.
	status       int
	contentRange string
	got          []byte

	// Traced pass only: where the handler wrapper hangs the next request's
	// server-side span, and how it reports the span closed.
	nextSpan    atomic.Pointer[spanSlot]
	handlerDone chan struct{}

	mark serveCounters
}

type spanSlot struct {
	tr         *tracer
	parent, op int
}

// serveCounters is what Mark and Finish difference.
type serveCounters struct {
	cache   gompresso.CacheStats
	metrics map[string]float64
}

func (w *serveWorkload) Setup(ctx context.Context) (st setupTimes, err error) {
	if w.objs, _, st, err = nativeSet(ctx, gompresso.VariantBit, true, w.seed, w.sz, w.tick); err != nil {
		return st, err
	}

	t0 := time.Now()
	w.root = filepath.Join(w.workDir, fmt.Sprintf("fixtures-%s-%d", w.name, os.Getpid()))
	if err = os.MkdirAll(w.root, 0o755); err != nil {
		return st, err
	}
	for _, o := range w.objs {
		if err = os.WriteFile(filepath.Join(w.root, o.Name+".gpz"), o.Comp, 0o644); err != nil {
			return st, err
		}
	}
	if w.srv, w.ts, err = w.start(server.Options{Root: w.root, CacheBytes: w.cacheBytes, AccessLog: io.Discard}); err != nil {
		return st, err
	}
	w.sched = serveSchedule(w.seed, w.sz.Schedule, len(w.objs), int64(w.sz.NativeSize))
	w.body = make([]byte, rangeMix[len(rangeMix)-1].Len+1)
	w.handlerDone = make(chan struct{}, 1)
	// Sequential sweep: resolves every object and, where the cache can hold
	// them, leaves every block decoded before the clock starts.
	if err = sweep(ctx, w.ts, w.objs); err != nil {
		return st, err
	}
	st.Warm = time.Since(t0).Seconds()
	return st, nil
}

// start brings up a server over the fixtures behind the span-recording
// wrapper.
func (w *serveWorkload) start(o server.Options) (*server.Server, *httptest.Server, error) {
	srv, err := server.New(o)
	if err != nil {
		return nil, nil, err
	}
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		slot := w.nextSpan.Swap(nil)
		if slot == nil {
			inner.ServeHTTP(rw, r)
			return
		}
		id := slot.tr.begin("server.handler", slot.parent, slot.op)
		inner.ServeHTTP(rw, r)
		slot.tr.end(id)
		w.handlerDone <- struct{}{}
	}))
	return srv, ts, nil
}

// sweep GETs every object whole, in order, and checks the bodies.
func sweep(ctx context.Context, ts *httptest.Server, objs []*object) error {
	for _, o := range objs {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/"+o.Name+".gpz", nil)
		if err != nil {
			return err
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", o.Name, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return fmt.Errorf("sweep %s: %w", o.Name, err)
		}
		if resp.StatusCode != http.StatusOK || !bytes.Equal(body, o.Raw) {
			return fmt.Errorf("sweep %s: status %d and %d bytes that differ from the input", o.Name, resp.StatusCode, len(body))
		}
	}
	return nil
}

func (w *serveWorkload) Ratio() float64 { return ratioOfSet(w.objs) }

func (w *serveWorkload) request(ctx context.Context, base string, rq request) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/"+w.objs[rq.Obj].Name+".gpz", nil)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", rq.Off, rq.Off+rq.Len-1))
	return req, nil
}

func (w *serveWorkload) Do(ctx context.Context, i int) (int64, error) {
	return w.get(ctx, w.ts, w.sched[i%len(w.sched)])
}

func (w *serveWorkload) get(ctx context.Context, ts *httptest.Server, rq request) (int64, error) {
	req, err := w.request(ctx, ts.URL, rq)
	if err != nil {
		return 0, err
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	// Reading to the end is what lets the connection be reused; a body
	// that fills the buffer is longer than any range asked for.
	n, err := io.ReadFull(resp.Body, w.body)
	if err == nil {
		return 0, errors.New("response body longer than the largest range")
	}
	if err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, err
	}
	w.status, w.contentRange, w.got = resp.StatusCode, resp.Header.Get("Content-Range"), w.body[:n]
	return int64(n), nil
}

func (w *serveWorkload) Check(_ context.Context, i int) error {
	return w.checkAgainst(w.sched[i%len(w.sched)])
}

// checkAgainst verifies the last response as the answer to rq.
func (w *serveWorkload) checkAgainst(rq request) error {
	o := w.objs[rq.Obj]
	if w.status != http.StatusPartialContent {
		return fmt.Errorf("%s: status %d, want 206", o.Name, w.status)
	}
	if want := fmt.Sprintf("bytes %d-%d/%d", rq.Off, rq.Off+rq.Len-1, len(o.Raw)); w.contentRange != want {
		return fmt.Errorf("%s: Content-Range %q, want %q", o.Name, w.contentRange, want)
	}
	if !bytes.Equal(w.got, o.Raw[rq.Off:rq.Off+rq.Len]) {
		return fmt.Errorf("%s: body of bytes %d+%d differs from the input", o.Name, rq.Off, rq.Len)
	}
	return nil
}

// traceNext makes the next request's handler call a child of parent.
func (w *serveWorkload) traceNext(tr *tracer, parent, op int) {
	w.nextSpan.Store(&spanSlot{tr: tr, parent: parent, op: op})
}

// waitHandler returns once the traced request's handler span has closed,
// which can be a few microseconds after the client saw the last byte.
func (w *serveWorkload) waitHandler() { <-w.handlerDone }

// scrape reads the daemon's own counters.
func scrape(ts *httptest.Server) (map[string]float64, error) {
	resp, err := ts.Client().Get(ts.URL + "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var m map[string]float64
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return nil, fmt.Errorf("/metrics: %w", err)
	}
	return m, nil
}

func (w *serveWorkload) counters() (serveCounters, error) {
	m, err := scrape(w.ts)
	return serveCounters{cache: w.srv.Codec().CacheStats(), metrics: m}, err
}

func (w *serveWorkload) Mark() (err error) {
	w.mark, err = w.counters()
	return err
}

func (w *serveWorkload) Finish(m *metricSet, timed *phase) error {
	now, err := w.counters()
	if err != nil {
		return err
	}
	ops := float64(max(timed.Attempted, 1))
	hits, misses := now.cache.Hits-w.mark.cache.Hits, now.cache.Misses-w.mark.cache.Misses
	hitRate := ratioOf(float64(hits), float64(hits+misses))
	m.emit("blockcache.hit_rate", hitRate)
	m.emit("blockcache.evictions_per_op", float64(now.cache.Evictions-w.mark.cache.Evictions)/ops)
	m.emit("blockcache.coalesced_per_op", float64(now.cache.Coalesced-w.mark.cache.Coalesced)/ops)
	m.emit("server.op_p99_ms", quantile(timed.Lat, 0.99)*1e3)
	m.emit("server.request_latency_p99_ms", now.metrics["request_latency_ns_p99"]/1e6)
	for _, c := range []string{"shed_total", "errors_total", "sequential_decodes_total"} {
		m.emit("server."+c, now.metrics[c]-w.mark.metrics[c])
	}
	if hitRate < w.minHitRate {
		return fmt.Errorf("%s: timed-phase cache hit rate %.4f is below %.2f: the working set did not stay resident, so this is not the workload it claims to be", w.name, hitRate, w.minHitRate)
	}
	return nil
}

func (w *serveWorkload) Close() error {
	if w.ts != nil {
		w.ts.Close()
	}
	if w.root == "" {
		return nil
	}
	return os.RemoveAll(w.root)
}
