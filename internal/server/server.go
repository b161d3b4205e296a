// Package server is the network-facing serving layer: an HTTP daemon
// that exposes the *decompressed* contents of compressed objects under a
// root directory, built on the repository's block-parallel machinery.
//
// Request lifecycle: a GET/HEAD for /<path> maps to the registry entry
// for root/<path>, built from its Stat alone. Range and If-Range headers
// are interpreted over the decompressed stream — clients address raw
// bytes and never see the compression. Every body is served through
// gompresso.ReaderAt, which decodes only the blocks the range overlaps;
// with a decoded-block cache attached (Options.CacheBytes), hot blocks
// are decoded once and streamed to every requester from shared
// refcounted buffers, and concurrent requests for the same block
// coalesce into a single decode. An object gets its ReaderAt from a
// one-time, singleflighted discovery pass on first use — the only code
// that reads an object before that: it opens the file, sniffs the format
// (Gompresso container, gzip, or zlib), and loads a container's index
// trailer (or, lacking one, scans its block section), or a foreign
// .gz/.zz stream's persisted sidecar (or, lacking one, captures its seek
// index with one counting decode).
//
// All requests share one codec — one worker pool, one cache, one
// budget — and a concurrency limiter bounds how many are actively
// decoding, so a burst of N requests cannot oversubscribe the pool.
// Each request's context cancels its decode pipeline when the client
// disconnects.
//
// Failure domains (PR 6): objects are read through a Source seam
// (fault-injectable in tests and dev runs); requests carry an optional
// decode deadline and rolling write deadlines; the limiter sheds
// queued requests with 503 + Retry-After after a bounded wait; a
// panicking handler answers 500 and the process survives; and an
// object whose bytes prove corrupt is quarantined — its registry entry
// becomes a tombstone, and repeat requests fail fast with 502 until a
// TTL passes or the file changes. /healthz
// answers liveness, /readyz readiness (503 once draining); /metrics
// exposes request, byte, failure, and cache-effectiveness counters
// (Prometheus-style text, or JSON with ?format=json).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"mime"
	"net/http"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gompresso"
	"gompresso/internal/buildinfo"
	"gompresso/internal/deflate"
	"gompresso/internal/format"
	"gompresso/internal/gzidx"
	"gompresso/internal/lz77"
	"gompresso/internal/obs"
	"gompresso/internal/perf"
)

// Options configures a Server.
type Options struct {
	// Root is the directory whose files are served (required). The
	// request path maps directly under it; traversal is rejected.
	Root string
	// CacheBytes bounds the shared decoded-block cache. 0 disables
	// caching (every range request decodes its blocks).
	CacheBytes int64
	// Workers is the decode worker budget shared by all requests
	// (0 = GOMAXPROCS).
	Workers int
	// MaxInFlight bounds the requests concurrently inside the decode
	// section; excess requests queue until a slot frees, the client
	// gives up, or QueueWait elapses (shed with 503). 0 selects
	// 4×GOMAXPROCS.
	MaxInFlight int
	// QueueWait bounds how long an admitted-but-queued request waits on
	// the concurrency limiter before the server sheds it with
	// 503 + Retry-After. 0 selects 5s; negative waits forever (the
	// pre-hardening behavior).
	QueueWait time.Duration
	// RequestTimeout bounds one request's decode work: the request
	// context gets this deadline on entry to the decode section, so a
	// pathological object cannot pin a limiter slot indefinitely.
	// 0 disables.
	RequestTimeout time.Duration
	// WriteTimeout is a rolling per-write deadline on the response body
	// (via http.ResponseController), so a stalled client cannot pin
	// worker buffers: each body write must complete within this window.
	// 0 disables.
	WriteTimeout time.Duration
	// QuarantineTTL is how long a decode-corrupt object stays
	// quarantined — requests fail fast with 502 instead of re-burning a
	// decode — before the server re-probes it. A changed file (size or
	// mtime) clears the entry immediately. 0 selects 30s; negative
	// disables quarantining.
	QuarantineTTL time.Duration
	// Source overrides where objects are read from. nil selects the
	// directory tree at Root; tests and the dev -fault flag inject a
	// fault-wrapped source here.
	Source Source
	// IndexDir, when set, persists foreign seek-index sidecars there
	// (mirroring the object tree, atomic temp+rename) after the first
	// full decode of a `.gz`/`.zz` object, and loads them back in the
	// object's discovery pass. Set it to Root to keep sidecars alongside
	// their objects. Empty (the default, safe for read-only roots) keeps
	// indexes in-memory only, living and dying with the registry entry.
	IndexDir string
	// IndexSpacing is the decompressed-byte gap between seek-index
	// checkpoints (0 selects the ~1 MiB default). Smaller spacing means
	// finer random access at more index overhead.
	IndexSpacing int64
	// Logf, when set, receives one line per server event (quarantine,
	// sidecar load/persist, handler panic). Requests go to AccessLog.
	Logf func(format string, args ...any)
	// AccessLog, when set, receives one JSON line per completed object
	// request, in a single Write: request id, object, range, status,
	// bytes, cache hits/misses, per-stage timings, shed/quarantine
	// verdicts. 5xx responses log at WARN with the typed-error class.
	AccessLog io.Writer
	// NoTrace disables request tracing entirely: no request ids, no
	// stage histograms, no /debug/requests ring — the pre-PR-10 request
	// path. For overhead measurement; production keeps tracing on.
	NoTrace bool
}

// Server serves decompressed objects over HTTP. Create with New; it is
// an http.Handler factory (Handler), not a listener — the caller owns
// the http.Server and its lifecycle.
type Server struct {
	src    Source
	codec  *gompresso.Codec
	sem    chan struct{}
	logf   func(string, ...any)
	tracer *obs.Tracer // nil when Options.NoTrace

	queueWait      time.Duration
	requestTimeout time.Duration
	writeTimeout   time.Duration
	quarTTL        time.Duration // <= 0 means quarantine disabled
	indexDir       string
	indexSpacing   int64
	workers        int // Options.Workers, for the foreign counting decode

	// ready is true from construction until BeginDrain; /readyz keys
	// off it so load balancers stop routing before Shutdown closes
	// connections.
	ready atomic.Bool

	// shedSeq numbers shed responses so consecutive Retry-After values
	// stagger deterministically (two sheds never advise the same
	// second). busyEWMANs tracks the recent decode-section occupancy
	// per request (EWMA, α=1/8) — the drain-rate input to the
	// Retry-After estimate.
	shedSeq    atomic.Int64
	busyEWMANs atomic.Int64

	// mu guards the registry: every entry, live or quarantined, and each
	// entry's file, refs, stale and lastUse.
	mu      sync.Mutex
	objects map[string]*object

	reg       *perf.Registry
	mRequests *perf.Counter
	mRanges   *perf.Counter
	mErrors   *perf.Counter
	mBytes    *perf.Counter
	mShed     *perf.Counter
	mPanics   *perf.Counter
	mQuar     *perf.Counter
	mQuarHits *perf.Counter
	mSeqDec   *perf.Counter
	mRetries  *perf.Counter
	mIdxLoad  *perf.Counter
	mIdxBuild *perf.Counter
	mIdxErr   *perf.Counter
	gInFlight *perf.Gauge
	gWaiting  *perf.Gauge
	gDecoding *perf.Gauge
	hLatency  *perf.Histogram
}

// object is one registry entry: a generation of a file under the root,
// keyed by name and pinned to its validators (size+mtime), which open
// checks against a fresh Stat on every request. The entry is built from
// that Stat alone; the discovery pass (access) opens the file and builds
// its block access, once per entry.
type object struct {
	name  string
	fsize int64
	mtime time.Time

	// Response header values, the same for every request of an entry.
	etag, lastMod, ctype string

	// file is nil until the discovery pass opens it; it is published
	// under Server.mu, where retire and release close it.
	file File

	// ra is the object's block access — every body and the decompressed
	// size come from it. nil until the first request's discovery pass
	// (see access) stores it, hence the atomic. raTok is the capacity-1
	// token serializing that discovery; waiters block on it with their
	// request context, not a bare mutex.
	ra    atomic.Pointer[gompresso.ReaderAt]
	raTok chan struct{}

	// until and reason make the entry a quarantine tombstone — no file,
	// no block access — from which open answers 502 until the TTL passes
	// or the file changes. A live entry has a zero until.
	until  time.Time
	reason string

	// refs counts requests currently serving from this object and stale
	// marks an entry dropped from the registry (replaced, quarantined, or
	// evicted by the registry cap); both are guarded by Server.mu. The
	// last releaser of a stale object closes its file, so rotated or
	// evicted files do not leak descriptors until a GC finalizer. lastUse
	// (also under mu) orders cap eviction.
	refs    int
	stale   bool
	lastUse time.Time
}

// maxOpenObjects caps the registry: each discovered object pins one open
// file descriptor, so a root with more distinct files than ulimit -n
// must recycle entries instead of exhausting descriptors. Eviction is
// least-recently-used; an evicted object only loses what its discovery
// pass built (index, discovered size) — the next request rebuilds it. An
// evicted tombstone ends its quarantine early.
const maxOpenObjects = 512

// New builds a Server over root. The codec — worker pool, decoded-block
// cache — is constructed here and shared by every request.
func New(o Options) (*Server, error) {
	if o.Source == nil {
		st, err := os.Stat(o.Root)
		if err != nil {
			return nil, fmt.Errorf("server: root: %w", err)
		}
		if !st.IsDir() {
			return nil, fmt.Errorf("server: root %q is not a directory", o.Root)
		}
		o.Source = NewDirSource(o.Root)
	}
	if o.MaxInFlight < 0 {
		return nil, fmt.Errorf("server: negative MaxInFlight %d", o.MaxInFlight)
	}
	if o.CacheBytes < 0 {
		// Mirror WithCache's contract rather than silently serving
		// uncached forever on an operator typo.
		return nil, fmt.Errorf("server: negative CacheBytes %d", o.CacheBytes)
	}
	if o.MaxInFlight == 0 {
		o.MaxInFlight = 4 * runtime.GOMAXPROCS(0)
	}
	if o.QueueWait == 0 {
		o.QueueWait = 5 * time.Second
	}
	if o.QuarantineTTL == 0 {
		o.QuarantineTTL = 30 * time.Second
	}
	copts := []gompresso.Option{gompresso.WithWorkers(o.Workers)}
	if o.CacheBytes > 0 {
		copts = append(copts, gompresso.WithCache(o.CacheBytes))
	}
	codec, err := gompresso.New(copts...)
	if err != nil {
		return nil, err
	}
	s := &Server{
		src:            o.Source,
		codec:          codec,
		sem:            make(chan struct{}, o.MaxInFlight),
		logf:           o.Logf,
		queueWait:      o.QueueWait,
		requestTimeout: o.RequestTimeout,
		writeTimeout:   o.WriteTimeout,
		quarTTL:        o.QuarantineTTL,
		indexDir:       o.IndexDir,
		indexSpacing:   o.IndexSpacing,
		workers:        o.Workers,
		objects:        make(map[string]*object),
		reg:            perf.NewRegistry(),
	}
	s.ready.Store(true)
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	if !o.NoTrace {
		s.tracer = obs.NewTracer(s.reg, o.AccessLog, obs.DefaultRingSize)
	}
	bi := buildinfo.Get()
	s.reg.Info("build_info", "binary identity (constant 1; information is in the labels)",
		[2]string{"version", bi.Version},
		[2]string{"go_version", bi.GoVersion},
		[2]string{"revision", bi.Revision})
	perf.RegisterRuntime(s.reg)
	s.mRequests = s.reg.Counter("requests_total", "object requests received")
	s.mRanges = s.reg.Counter("range_requests_total", "requests served as 206 partial content")
	s.mErrors = s.reg.Counter("errors_total", "requests answered with a 4xx/5xx status or aborted mid-body")
	s.mBytes = s.reg.Counter("bytes_served_total", "decompressed body bytes written to clients")
	s.gInFlight = s.reg.Gauge("inflight_requests", "object requests inside the decode section now")
	s.gWaiting = s.reg.Gauge("waiting_requests", "object requests queued on the concurrency limiter now")
	s.gDecoding = s.reg.Gauge("inflight_sequential_decodes", "block-access discovery passes running now")
	s.mShed = s.reg.Counter("shed_total", "requests shed with 503 after waiting QueueWait on the limiter")
	s.mPanics = s.reg.Counter("panics_total", "request handlers that panicked (answered 500, process survived)")
	s.mQuar = s.reg.Counter("quarantined_total", "objects quarantined after a corrupt decode")
	s.mQuarHits = s.reg.Counter("quarantine_hits_total", "requests failed fast with 502 by a quarantine entry")
	s.mSeqDec = s.reg.Counter("sequential_decodes_total", "discovery attempts that read an object for its block access (index load or scan, foreign counting decode; not a sidecar load)")
	s.mRetries = s.reg.Counter("source_retries_total", "transient source-read errors retried inside a discovery pass")
	s.mIdxLoad = s.reg.Counter("sidecar_loads_total", "foreign objects promoted to random access from a persisted sidecar")
	s.mIdxBuild = s.reg.Counter("sidecar_builds_total", "seek indexes captured during a first decode and promoted")
	s.mIdxErr = s.reg.Counter("sidecar_errors_total", "sidecars that failed to load (corrupt/stale) or persist")
	s.hLatency = s.reg.Histogram("request_latency_ns", "object request wall time in nanoseconds")
	s.reg.Func("quarantined_objects", "registry entries that are quarantine tombstones", func() float64 {
		return s.countEntries(func(o *object) bool { return !o.until.IsZero() })
	})
	s.reg.Func("objects_open", "registry entries holding an open file", func() float64 {
		return s.countEntries(func(o *object) bool { return o.file != nil })
	})
	s.reg.Func("cache_hits_total", "block requests served from the decoded-block cache", func() float64 {
		return float64(codec.CacheStats().Hits)
	})
	s.reg.Func("cache_misses_total", "block requests that ran or joined a decode", func() float64 {
		return float64(codec.CacheStats().Misses)
	})
	s.reg.Func("cache_coalesced_total", "block decodes avoided by joining an in-flight one", func() float64 {
		return float64(codec.CacheStats().Coalesced)
	})
	s.reg.Func("cache_evictions_total", "blocks evicted to fit the cache budget", func() float64 {
		return float64(codec.CacheStats().Evictions)
	})
	s.reg.Func("cache_bytes", "resident decoded bytes", func() float64 {
		return float64(codec.CacheStats().Bytes)
	})
	s.reg.Func("cache_hit_rate", "hits / (hits+misses)", func() float64 {
		return codec.CacheStats().HitRate()
	})
	s.reg.Func("inflight_block_decodes", "cache block decodes running now", func() float64 {
		return float64(codec.CacheStats().InFlight)
	})
	return s, nil
}

// Codec exposes the server's shared codec (for benchmarks and tests
// inspecting cache behavior).
func (s *Server) Codec() *gompresso.Codec { return s.codec }

// BeginDrain flips /readyz to 503 so load balancers stop routing here.
// Call it before http.Server.Shutdown; in-flight and already-routed
// requests still complete (/healthz stays 200 — the process is alive,
// just leaving the pool).
func (s *Server) BeginDrain() { s.ready.Store(false) }

// Ready reports whether the server is accepting routed traffic.
func (s *Server) Ready() bool { return s.ready.Load() }

// Handler returns the server's HTTP handler: /healthz, /metrics, and
// every other path an object request.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !s.ready.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			io.WriteString(w, "draining\n")
			return
		}
		io.WriteString(w, "ready\n")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			s.reg.WriteJSON(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		s.reg.WriteText(w)
	})
	mux.HandleFunc("/debug/requests", func(w http.ResponseWriter, r *http.Request) {
		s.tracer.ServeDebugRequests(w, r)
	})
	mux.HandleFunc("/", s.serveObject)
	return mux
}

// statusWriter records the response status and body byte count, and —
// when a write timeout is configured — pushes a rolling write deadline
// ahead of every body write so a stalled client errors out of the send
// loop instead of pinning worker buffers for the connection's lifetime.
type statusWriter struct {
	http.ResponseWriter
	rc           *http.ResponseController // nil unless writeTimeout > 0
	writeTimeout time.Duration
	trace        *obs.Trace // nil when tracing is off
	status       int
	bytes        int64
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	if w.writeTimeout > 0 {
		// Unsupported writers (test recorders, exotic middleware) are
		// fine: the deadline is a bound, not a guarantee.
		w.rc.SetWriteDeadline(time.Now().Add(w.writeTimeout))
	}
	var t0 time.Duration
	if w.trace != nil {
		t0 = w.trace.Elapsed()
	}
	n, err := w.ResponseWriter.Write(p)
	if w.trace != nil {
		w.trace.Cum(obs.StageBodyWrite, w.trace.Elapsed()-t0, 1)
	}
	w.bytes += int64(n)
	return n, err
}

// serveObject handles one GET/HEAD object request end to end: panic
// isolation, accounting, the request trace's begin/finish, and the
// rolling write deadline's reset.
func (s *Server) serveObject(rw http.ResponseWriter, r *http.Request) {
	s.mRequests.Inc()
	ctx, trace := s.tracer.Begin(r.Context(), r.Method, r.URL.Path, r.Header.Get("Range"))
	if trace != nil {
		rw.Header()["X-Request-Id"] = []string{trace.ID()} // the key is canonical already
	}
	w := &statusWriter{ResponseWriter: rw, writeTimeout: s.writeTimeout, trace: trace}
	if s.writeTimeout > 0 {
		w.rc = http.NewResponseController(rw)
	}
	start := time.Now()
	defer func() {
		if v := recover(); v != nil {
			// A decode or handler bug takes down this request, not the
			// process. If the status line is unsent we can still answer
			// 500; otherwise the truncated body tells the client.
			s.mPanics.Inc()
			s.mErrors.Inc()
			if w.status == 0 {
				http.Error(w, "internal error", http.StatusInternalServerError)
			}
			trace.SetError("panic")
			s.logf("%s %s PANIC %v\n%s", r.Method, r.URL.Path, v, debug.Stack())
		}
		if w.writeTimeout > 0 {
			// Clear the rolling deadline so it cannot shoot down the
			// next request on a keep-alive connection.
			w.rc.SetWriteDeadline(time.Time{})
		}
		s.mBytes.Add(w.bytes)
		s.hLatency.Observe(time.Since(start).Nanoseconds())
		// Finish runs after panic recovery so crashed requests still get
		// their access-log line (at WARN: the status is 500).
		trace.Finish(w.status, w.bytes)
	}()
	err := s.serve(ctx, w, r)
	if err != nil || w.status >= 400 {
		s.mErrors.Inc()
	}
	if err != nil && trace != nil && !errors.As(err, new(*httpError)) {
		trace.SetError(errClass(err))
	}
}

// errClass buckets a request error for the access log and span dumps:
// "corrupt" (the object's bytes are bad), "canceled" (client gone),
// "deadline" (request timeout), "backend" (read-path failure).
func errClass(err error) string {
	switch {
	case isCorrupt(err):
		return "corrupt"
	case errors.Is(err, context.Canceled):
		return "canceled"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	default:
		return "backend"
	}
}

// httpError is an error with a response status. serve's callees return
// it while the response is still unwritten. class, when set, is the
// serving-policy verdict ("quarantined") carried to the access log.
type httpError struct {
	code  int
	msg   string
	class string
}

func (e *httpError) Error() string { return e.msg }

func errf(code int, format string, args ...any) error {
	return &httpError{code: code, msg: fmt.Sprintf(format, args...)}
}

// serve answers one object request under ctx: the request's context,
// carrying its trace when tracing is on.
func (s *Server) serve(ctx context.Context, w *statusWriter, r *http.Request) error {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return nil
	}
	_, rsp := obs.Start(ctx, obs.StageResolve)
	obj, rej := s.open(r.URL.Path)
	rsp.End()
	if rej != nil {
		w.trace.SetVerdict(rej.class)
		http.Error(w, rej.msg, rej.code)
		return nil
	}
	defer s.release(obj)

	// Conditional GET resolves on the validators alone — before the
	// limiter and before the object is opened, so revalidations are free
	// (and an object in a format we cannot serve still revalidates).
	if notModified(r.Header.Get("If-None-Match"), r.Header.Get("If-Modified-Since"), obj.etag, obj.mtime) {
		h := w.Header()
		h.Set("ETag", obj.etag)
		h.Set("Last-Modified", obj.lastMod)
		w.WriteHeader(http.StatusNotModified)
		return nil
	}

	// The decode section: everything below may decode blocks, so it
	// runs inside the concurrency limiter. Waiters give up when the
	// client does, and are shed with 503 once they have queued for
	// queueWait — bounded waits, not silent backlog.
	if s.requestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
		defer cancel()
	}
	s.gWaiting.Inc()
	_, qsp := obs.Start(ctx, obs.StageQueueWait)
	shed, err := s.admit(ctx)
	qsp.End()
	s.gWaiting.Dec()
	if shed {
		s.mShed.Inc()
		w.trace.SetVerdict("shed")
		w.Header().Set("Retry-After", s.retryAfterAdvice())
		http.Error(w, "overloaded, retry later", http.StatusServiceUnavailable)
		return nil
	}
	if err != nil {
		return s.answerCtxErr(w, err)
	}
	defer func() { <-s.sem }()
	s.gInFlight.Inc()
	busyStart := time.Now()
	defer func() {
		s.gInFlight.Dec()
		s.observeBusy(time.Since(busyStart))
	}()

	ra, err := s.access(ctx, obj)
	if err != nil {
		var he *httpError // escapes through errors.As: only a failing request allocates it
		switch {
		case ctx.Err() != nil:
			return s.answerCtxErr(w, err)
		case errors.As(err, &he): // the object cannot be served: 404, 415
			http.Error(w, he.msg, he.code)
			return nil
		case s.maybeQuarantine(obj, err):
			w.trace.SetVerdict("quarantined")
			http.Error(w, "object corrupt", http.StatusBadGateway)
		case isCorrupt(err):
			http.Error(w, "object corrupt", http.StatusBadGateway)
		default:
			// A read-path failure (EIO, truncated file): the backend is
			// unhealthy for this object, not the server.
			http.Error(w, "cannot read object", http.StatusBadGateway)
		}
		return err
	}

	h := w.Header()
	h.Set("Accept-Ranges", "bytes")
	h.Set("ETag", obj.etag)
	h.Set("Last-Modified", obj.lastMod)
	h.Set("Content-Type", obj.ctype)

	size := ra.Size()
	rng := byteRange{off: 0, length: size}
	status := http.StatusOK
	// Range applies to GET only (RFC 9110 §14.2); HEAD reports the
	// full representation.
	if spec := r.Header.Get("Range"); spec != "" && r.Method == http.MethodGet &&
		ifRangeApplies(r.Header.Get("If-Range"), obj.etag, obj.mtime) {
		pr, ok, rerr := parseRange(spec, size)
		if rerr != nil {
			h.Set("Content-Range", "bytes */"+strconv.FormatInt(size, 10))
			http.Error(w, "range not satisfiable", http.StatusRequestedRangeNotSatisfiable)
			return nil
		}
		if ok {
			rng, status = pr, http.StatusPartialContent
			h.Set("Content-Range", rng.contentRange(size))
			s.mRanges.Inc()
		}
	}
	h.Set("Content-Length", strconv.FormatInt(rng.length, 10))
	w.WriteHeader(status)
	if r.Method == http.MethodHead {
		return nil
	}
	_, err = ra.WriteRangeTo(ctx, w, rng.off, rng.length)
	// The status line is gone; a decode or write failure here can only
	// abort the connection (the byte count mismatch tells the client).
	// Corruption discovered mid-send still quarantines the object, so
	// the next request fails fast with a clean 502.
	if err != nil && s.maybeQuarantine(obj, err) {
		w.trace.SetVerdict("quarantined")
	}
	return err
}

// answerCtxErr maps a context error to a response, when one can still
// be sent. Deadline expiry is the server's own request timeout — answer
// 503 so the client knows to retry; cancellation means the client is
// gone and nothing we write matters.
func (s *Server) answerCtxErr(w *statusWriter, err error) error {
	if errors.Is(err, context.DeadlineExceeded) && w.status == 0 {
		w.Header().Set("Retry-After", s.retryAfterAdvice())
		http.Error(w, "request timed out", http.StatusServiceUnavailable)
	}
	return err
}

// observeBusy folds one decode-section occupancy sample into the EWMA
// that feeds Retry-After advice. The load/store pair is racy between
// concurrent requests, but every access is atomic and the value is a
// smoothed estimate — losing a sample under contention is harmless.
func (s *Server) observeBusy(d time.Duration) {
	sample := int64(d)
	old := s.busyEWMANs.Load()
	if old == 0 {
		s.busyEWMANs.Store(sample)
		return
	}
	s.busyEWMANs.Store(old + (sample-old)/8)
}

// admit takes a limiter slot for the decode section, waiting for one at
// most queueWait (shed) and no longer than the client does (ctx). A free
// slot is taken without arming the shed timer, so only requests that
// actually queue pay for one.
func (s *Server) admit(ctx context.Context) (shed bool, err error) {
	select {
	case s.sem <- struct{}{}:
		return false, nil
	default:
	}
	var shedC <-chan time.Time
	if s.queueWait > 0 {
		t := time.NewTimer(s.queueWait)
		defer t.Stop()
		shedC = t.C
	}
	select {
	case s.sem <- struct{}{}:
		return false, nil
	case <-shedC:
		return true, nil
	case <-ctx.Done():
		return false, ctx.Err()
	}
}

// retryAfterAdvice computes the Retry-After value for a shed or
// timed-out request. A hardcoded constant re-stampedes the queue: every
// shed client retries on the same second boundary, arrives together,
// and is shed together again. Instead the advice derives from the
// observed queue drain — queued requests each hold a limiter slot for
// about the recent per-request occupancy, served MaxInFlight at a time
// — and consecutive sheds rotate through the drain window so no two
// clients are told the same second (the shed sequence is the jitter
// source: deterministic splay, collision-free where a random draw could
// still pile two clients onto one boundary).
func (s *Server) retryAfterAdvice() string {
	avg := s.busyEWMANs.Load()
	if avg <= 0 {
		avg = int64(50 * time.Millisecond)
	}
	waiting := s.gWaiting.Load()
	if waiting < 0 {
		waiting = 0
	}
	drain := time.Duration((waiting + 1) * avg / int64(cap(s.sem)))
	// Spread the retries across the estimated drain window, at least 2
	// distinct seconds (so consecutive sheds always differ) and at most
	// 30 (advice beyond that just loses clients).
	spread := int64(drain/time.Second) + 2
	if spread > 30 {
		spread = 30
	}
	return strconv.FormatInt(1+s.shedSeq.Add(1)%spread, 10)
}

// errNotFound answers a path that names no servable file.
var errNotFound = &httpError{code: http.StatusNotFound, msg: "not found"}

// open maps a request path to its registry entry — Stat and one locked
// lookup, nothing opened. The entry is reused while the file's size and
// mtime are unchanged; otherwise, or once a quarantine tombstone's TTL has
// passed, it is replaced by one built from the Stat alone. A live
// tombstone answers the fast 502 here: no open, no limiter slot, no
// decode. The returned object is pinned for the caller (refs incremented);
// it must be handed to release exactly once.
func (s *Server) open(urlPath string) (*object, *httpError) {
	name := path.Clean("/" + urlPath)[1:]
	if name == "" {
		return nil, errNotFound
	}
	st, err := s.src.Stat(name)
	if err != nil || st.IsDir() {
		return nil, errNotFound
	}
	now := time.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	obj := s.objects[name]
	if obj == nil || obj.fsize != st.Size() || !obj.mtime.Equal(st.ModTime()) ||
		(!obj.until.IsZero() && now.After(obj.until)) {
		if obj != nil {
			s.retire(obj)
		}
		obj = &object{
			name:    name,
			fsize:   st.Size(),
			mtime:   st.ModTime(),
			etag:    fmt.Sprintf(`"g-%x-%x"`, st.Size(), st.ModTime().UnixNano()),
			lastMod: st.ModTime().UTC().Format(http.TimeFormat),
			ctype:   contentTypeFor(name),
			raTok:   make(chan struct{}, 1),
			lastUse: now, // set before the cap check, which evicts the oldest
		}
		s.objects[name] = obj
		for len(s.objects) > maxOpenObjects {
			s.evictOldest()
		}
	}
	obj.lastUse = now
	if !obj.until.IsZero() {
		s.mQuarHits.Inc()
		return nil, &httpError{code: http.StatusBadGateway, msg: "object quarantined: " + obj.reason, class: "quarantined"}
	}
	obj.refs++
	return obj, nil
}

// retire marks an entry dropped from the registry. A predecessor stays
// open while in-flight requests read it; its cache entries (keyed under
// the old ReaderAt's object id) age out of the LRU. Caller holds s.mu.
func (s *Server) retire(obj *object) {
	obj.stale = true
	closeIdle(obj)
}

// evictOldest drops the least-recently-used entry of a non-empty registry
// to keep the open-descriptor count bounded. Caller holds s.mu.
func (s *Server) evictOldest() {
	var lru *object
	for _, o := range s.objects {
		if lru == nil || o.lastUse.Before(lru.lastUse) {
			lru = o
		}
	}
	delete(s.objects, lru.name)
	s.retire(lru)
}

// release unpins an object returned by open.
func (s *Server) release(obj *object) {
	s.mu.Lock()
	obj.refs--
	closeIdle(obj)
	s.mu.Unlock()
}

// closeIdle closes a stale entry's file once no request holds it. Caller
// holds s.mu.
func closeIdle(obj *object) {
	if obj.stale && obj.refs == 0 && obj.file != nil {
		obj.file.Close()
	}
}

// countEntries counts the registry entries pred holds for.
func (s *Server) countEntries(pred func(*object) bool) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, o := range s.objects {
		if pred(o) {
			n++
		}
	}
	return float64(n)
}

// isCorrupt classifies a decode error as data corruption — the object
// itself is bad, and will stay bad on retry — as opposed to a
// transient read failure or cancellation. The typed errors come from
// the decode stack: deflate.Error (foreign streams), format.ErrFormat
// (container structure, a header that does not parse included) and
// lz77.ErrCorrupt (block payloads).
func isCorrupt(err error) bool {
	return errors.As(err, new(*deflate.Error)) ||
		errors.Is(err, format.ErrFormat) ||
		errors.Is(err, lz77.ErrCorrupt)
}

// isTransient reports whether a discovery-pass error is worth an
// in-request retry: read-path failures that are neither corruption
// (retry cannot help), a verdict on the object (404, 415), nor
// cancellation (nobody is waiting).
func isTransient(err error) bool {
	return err != nil && !isCorrupt(err) && !errors.As(err, new(*httpError)) &&
		!errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded)
}

// maybeQuarantine replaces obj's registry entry with a tombstone when err
// says its bytes are corrupt, so repeat requests fail fast with 502 in
// open instead of re-burning a decode. Returns whether it is a quarantine
// verdict. The tombstone keeps the generation's validators — a rewritten
// file replaces it on the next request — and the predecessor is retired
// with its cached blocks forgotten, so nothing suspect survives in memory.
func (s *Server) maybeQuarantine(obj *object, err error) bool {
	if s.quarTTL <= 0 || !isCorrupt(err) {
		return false
	}
	if ra := obj.ra.Load(); ra != nil {
		ra.Forget()
	}
	now := time.Now()
	s.mu.Lock()
	if s.objects[obj.name] != obj { // a concurrent verdict or a new generation replaced it
		s.mu.Unlock()
		return true
	}
	s.objects[obj.name] = &object{name: obj.name, fsize: obj.fsize, mtime: obj.mtime,
		lastUse: now, until: now.Add(s.quarTTL), reason: err.Error()}
	s.retire(obj)
	s.mu.Unlock()
	s.mQuar.Inc()
	s.logf("quarantined %s for %v: %v", obj.name, s.quarTTL, err)
	return true
}

// access returns the object's block access — the ReaderAt every body is
// written from, which also knows the decompressed size — running the
// one-time discovery pass on first use (kept for the entry's lifetime).
// Discovery is a context-aware singleflight: one request discovers while
// the rest wait on the token with their own contexts, so a disconnected
// waiter frees its concurrency-limiter slot instead of queueing blindly
// behind a slow pass; if the discovering request is itself cancelled, the
// next waiter takes over.
func (s *Server) access(ctx context.Context, obj *object) (*gompresso.ReaderAt, error) {
	if ra := obj.ra.Load(); ra != nil {
		return ra, nil
	}
	select {
	case obj.raTok <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-obj.raTok }()
	if ra := obj.ra.Load(); ra != nil {
		return ra, nil
	}
	ra, err := s.discover(ctx, obj)
	if err != nil {
		return nil, err
	}
	obj.ra.Store(ra)
	return ra, nil
}

// discoverRetries bounds a discovery pass's in-request retries of
// transient source-read errors; backoffBase is the first sleep, doubled
// per attempt with up to 50% jitter so synchronized retries splay.
const (
	discoverRetries = 2
	backoffBase     = 25 * time.Millisecond
)

// discover runs the discovery pass behind access's token, up to
// 1+discoverRetries times with backoff between attempts as long as the
// failure is transient (a flaky disk read — not corruption, not
// cancellation). No response byte has been sent yet, so a retry is
// always safe.
func (s *Server) discover(ctx context.Context, obj *object) (*gompresso.ReaderAt, error) {
	s.gDecoding.Inc()
	defer s.gDecoding.Dec()
	for attempt := 0; ; attempt++ {
		sctx, sp := obs.Start(ctx, obs.StageSeqDecode)
		ra, err := s.openAccess(sctx, obj)
		sp.End()
		if err == nil || attempt == discoverRetries || !isTransient(err) {
			return ra, err
		}
		s.mRetries.Inc()
		// math/rand/v2: lock-free per-goroutine state, no global mutex
		// on the request path.
		delay := backoffBase << attempt
		delay += time.Duration(rand.Int64N(int64(delay)))
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return nil, err
		}
	}
}

// openAccess is one discovery attempt, and the only code that reads an
// object before its block access exists. It opens the file (once per
// entry; a retry reuses it) and sniffs the magic. A native container then
// opens through its index trailer or, lacking one, one scan of its block
// section; NewReaderAt's header parse is the only header check, so a
// header that does not parse is corruption like any other. A foreign
// stream is promoted from a fresh, valid sidecar when there is one, and
// is otherwise read once and pays one counting decode that captures seek
// checkpoints along the way (gzidx.Build); the index is persisted as a
// sidecar when an index directory is configured. sequential_decodes_total
// counts the attempts that load, scan or decode — not sidecar loads.
func (s *Server) openAccess(ctx context.Context, obj *object) (*gompresso.ReaderAt, error) {
	if obj.file == nil {
		f, err := s.src.Open(obj.name)
		if os.IsNotExist(err) || os.IsPermission(err) {
			return nil, errNotFound
		}
		if err != nil {
			return nil, err // e.g. EMFILE: a server problem, retried
		}
		s.mu.Lock()
		obj.file = f
		s.mu.Unlock()
	}
	head := make([]byte, 4)
	n, err := obs.SourceReaderAt(ctx, obj.file).ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return nil, err
	}
	form := deflate.FormatGzip
	switch gompresso.DetectFormat(head[:n]) {
	case gompresso.FormatGompresso:
		s.mSeqDec.Inc()
		return s.codec.NewReaderAt(obj.file, obj.fsize)
	case gompresso.FormatZlib:
		form = deflate.FormatZlib
	case gompresso.FormatAuto:
		return nil, errf(http.StatusUnsupportedMediaType,
			"unsupported object format (want Gompresso container, gzip, or zlib)")
	}
	if idx := s.loadSidecar(obj); idx != nil {
		ra, err := s.codec.NewReaderAtWithIndex(obj.file, obj.fsize, idx)
		if err == nil {
			s.mIdxLoad.Inc()
			return ra, nil
		}
		s.mIdxErr.Inc()
		s.logf("sidecar for %s rejected: %v", obj.name, err)
	}
	s.mSeqDec.Inc()
	// A source that ends before the size it reported is a truncated object,
	// which is the decoder's error to name.
	data := make([]byte, obj.fsize)
	src := io.NewSectionReader(obs.SourceReaderAt(ctx, obj.file), 0, obj.fsize)
	n, err = io.ReadFull(src, data)
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return nil, err
	}
	idx, err := gzidx.Build(ctx, data[:n], form, s.indexSpacing, deflate.Options{Workers: s.workers})
	if err != nil {
		return nil, err
	}
	ra, err := s.codec.NewReaderAtWithIndex(obj.file, obj.fsize, idx)
	if err != nil {
		s.mIdxErr.Inc()
		return nil, fmt.Errorf("indexing %s: %w", obj.name, err)
	}
	s.mIdxBuild.Inc()
	s.persistSidecar(obj, idx)
	return ra, nil
}

// sidecarPath maps an object name into the index directory.
func (s *Server) sidecarPath(name string) string {
	return filepath.Join(s.indexDir, filepath.FromSlash(name)+gzidx.Ext)
}

// loadSidecar finds a fresh, valid sidecar for the foreign object: first
// in the configured index directory, then alongside the object through
// the Source seam (sidecars shipped with the data, or built offline by
// `gompresso index`). Corrupt or stale sidecars are counted and ignored —
// the counting decode rebuilds and, when an index directory is
// configured, replaces them.
func (s *Server) loadSidecar(obj *object) *gompresso.SeekIndex {
	if s.indexDir != "" {
		idx, err := gzidx.LoadFile(s.sidecarPath(obj.name), obj.fsize, obj.mtime)
		if err == nil {
			return idx
		}
		if !os.IsNotExist(err) {
			s.mIdxErr.Inc()
			s.logf("sidecar %s: %v", s.sidecarPath(obj.name), err)
		}
	}
	idx, err := s.loadSourceSidecar(obj)
	if err == nil {
		return idx
	}
	if !os.IsNotExist(err) {
		s.mIdxErr.Inc()
		s.logf("sidecar %s%s: %v", obj.name, gzidx.Ext, err)
	}
	return nil
}

// loadSourceSidecar reads the object's sidecar through the Source seam.
func (s *Server) loadSourceSidecar(obj *object) (*gompresso.SeekIndex, error) {
	name := obj.name + gzidx.Ext
	st, err := s.src.Stat(name)
	if err != nil {
		return nil, err
	}
	f, err := s.src.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return gzidx.Load(io.NewSectionReader(f, 0, st.Size()), st.Size(), obj.fsize, obj.mtime)
}

// persistSidecar writes the object's freshly built index durably when an
// index directory is configured; in-memory deployments skip it. Persist
// failures never fail the request — the index is already in use.
func (s *Server) persistSidecar(obj *object, idx *gompresso.SeekIndex) {
	if s.indexDir == "" {
		return
	}
	enc, err := gzidx.Encode(idx, obj.mtime)
	if err == nil {
		err = gzidx.WriteFileAtomic(s.sidecarPath(obj.name), enc)
	}
	if err != nil {
		s.mIdxErr.Inc()
		s.logf("persisting sidecar for %s: %v", obj.name, err)
		return
	}
	s.logf("sidecar persisted for %s (%d checkpoints)", obj.name, idx.NumChunks())
}

// contentTypeFor guesses a Content-Type from the object name with the
// compression suffix stripped: corpus.txt.gz serves as text/plain.
func contentTypeFor(name string) string {
	base := name
	switch ext := path.Ext(base); ext {
	case ".gz", ".zz", ".gpz":
		base = base[:len(base)-len(ext)]
	}
	if t := mime.TypeByExtension(path.Ext(base)); t != "" {
		return t
	}
	return "application/octet-stream"
}
