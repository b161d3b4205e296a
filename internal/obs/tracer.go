package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"gompresso/internal/perf"
)

// DefaultRingSize is the slow-request ring capacity the daemon runs with.
const DefaultRingSize = 64

// ringTTL makes the ring track *recent* slow requests: an entry older
// than this is replaceable by any newcomer regardless of latency, so a
// cold-start spike ages out instead of squatting the ring forever.
const ringTTL = 5 * time.Minute

// idSeq seeds process-unique request ids across every Tracer (tests
// construct several servers per process).
var idSeq atomic.Uint64

// Tracer owns a server's tracing state: the per-stage histograms, the
// request-id sequence, the trace pool, the access logger, and the
// slow-request ring. A nil *Tracer is valid and disables everything.
type Tracer struct {
	hists  [numStages]*perf.Histogram
	seq    atomic.Uint64
	base   string
	pool   sync.Pool
	access *slog.Logger

	ringCap int
	ringMu  sync.Mutex
	ring    []*Trace
}

// NewTracer builds a Tracer, registering one stage_<name>_ns histogram
// per stage in reg. accessLog, when non-nil, receives one JSON line per
// finished request (log/slog; WARN for 5xx). ringSize bounds the
// slow-request ring.
func NewTracer(reg *perf.Registry, accessLog io.Writer, ringSize int) *Tracer {
	tr := &Tracer{
		base:    fmt.Sprintf("%x", time.Now().UnixNano()&0xffffff^int64(idSeq.Add(1)<<24)),
		ringCap: ringSize,
	}
	tr.pool.New = func() any { return new(Trace) }
	for st := Stage(0); st < numStages; st++ {
		tr.hists[st] = reg.Histogram("stage_"+st.String()+"_ns",
			"request time inside the "+st.String()+" stage in nanoseconds")
	}
	if accessLog != nil {
		tr.access = slog.New(slog.NewJSONHandler(accessLog, nil))
	}
	return tr
}

func (tr *Tracer) observe(stage Stage, ns int64) {
	tr.hists[stage].Observe(ns)
}

// Begin attaches a fresh trace to ctx and assigns the request id. A nil
// tracer returns ctx unchanged and a nil trace (every Trace method is
// nil-safe), so callers need no enabled check.
func (tr *Tracer) Begin(ctx context.Context, method, path, rng string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	t := tr.pool.Get().(*Trace)
	t.reset(tr, tr.base+"-"+strconv.FormatUint(tr.seq.Add(1), 10), method, path, rng)
	//lint:allow poolescape sanctioned lifecycle helper; Finish recycles the trace into the pool
	return context.WithValue(ctx, ctxKey{}, &ctxRef{t: t, parent: -1}), t
}

// Finish completes the trace: stamps status and bytes, emits the access
// log line, and either parks the trace in the slow-request ring or
// recycles it. Call exactly once, after the last span has ended and
// every request goroutine has returned.
func (t *Trace) Finish(status int, bytes int64) {
	if t == nil {
		return
	}
	t.status = status
	t.bytes = bytes
	t.dur = time.Since(t.start)
	tr := t.tr
	if tr.access != nil {
		tr.logAccess(t)
	}
	if evicted := tr.offer(t); evicted != nil {
		tr.pool.Put(evicted)
	}
}

// logAccess emits the one-line JSON access record. 5xx responses log at
// WARN with the typed-error class, so backend failures (quarantine
// 502s, retry-exhausted reads) are never silent.
func (tr *Tracer) logAccess(t *Trace) {
	attrs := make([]slog.Attr, 0, 12)
	attrs = append(attrs,
		slog.String("id", t.id),
		slog.String("method", t.method),
		slog.String("path", t.path),
		slog.Int("status", t.status),
		slog.Int64("bytes", t.bytes),
		slog.Float64("dur_ms", float64(t.dur)/float64(time.Millisecond)),
		slog.Int64("cache_hits", t.hits.Load()),
		slog.Int64("cache_misses", t.misses.Load()),
	)
	if t.rng != "" {
		attrs = append(attrs, slog.String("range", t.rng))
	}
	if t.verdict != "" {
		attrs = append(attrs, slog.String("verdict", t.verdict))
	}
	if t.errCls != "" {
		attrs = append(attrs, slog.String("err", t.errCls))
	}
	var stages []any
	for st, ns := range t.stageTotals() {
		if ns > 0 {
			stages = append(stages, slog.Int64(Stage(st).String()+"_us", ns/1000))
		}
	}
	attrs = append(attrs, slog.Group("stages", stages...))
	// 5xx answers and mid-body failures (a committed 200 that aborted
	// with a typed error) both warn; a client hanging up is routine.
	level := slog.LevelInfo
	if t.status >= 500 || (t.errCls != "" && t.errCls != "canceled") {
		level = slog.LevelWarn
	}
	tr.access.LogAttrs(context.Background(), level, "request", attrs...)
}

// stageTotals sums span durations and cumulative time per stage.
// Stages overlap (a seq_decode span contains its source reads), so
// totals are per-stage attributions, not an exclusive partition.
func (t *Trace) stageTotals() [numStages]int64 {
	var out [numStages]int64
	for i := int32(0); i < t.nspans; i++ {
		sp := &t.spans[i]
		if sp.durNs > 0 {
			out[sp.stage] += sp.durNs
		}
	}
	for st := range out {
		out[st] += t.cumNs[st].Load()
	}
	return out
}

// offer inserts t into the slow-request ring if it ranks among the
// slowest recent requests, returning the trace the pool gets back (the
// evicted entry, or t itself when it doesn't qualify; nil when the ring
// simply grew).
func (tr *Tracer) offer(t *Trace) *Trace {
	tr.ringMu.Lock()
	defer tr.ringMu.Unlock()
	if len(tr.ring) < tr.ringCap {
		tr.ring = append(tr.ring, t)
		return nil
	}
	// Replace the most replaceable entry: expired ones first, then the
	// fastest. A newcomer slower than the victim (or any expired victim)
	// takes the slot.
	now := time.Now()
	victim := 0
	for i := 1; i < len(tr.ring); i++ {
		ve, ce := now.Sub(tr.ring[victim].start) > ringTTL, now.Sub(tr.ring[i].start) > ringTTL
		if ce != ve {
			if ce {
				victim = i
			}
			continue
		}
		if tr.ring[i].dur < tr.ring[victim].dur {
			victim = i
		}
	}
	if now.Sub(tr.ring[victim].start) > ringTTL || t.dur > tr.ring[victim].dur {
		evicted := tr.ring[victim]
		tr.ring[victim] = t
		return evicted
	}
	return t
}

// DumpSpan is one span in a /debug/requests dump. Parent is the index
// of the enclosing span in the same Spans slice, -1 for request-level
// spans; DurUs is -1 for a span never ended (a bug spanbalance should
// have caught).
type DumpSpan struct {
	Stage   string `json:"stage"`
	Parent  int32  `json:"parent"`
	StartUs int64  `json:"start_us"`
	DurUs   int64  `json:"dur_us"`
	N       int64  `json:"n,omitempty"`
}

// DumpEntry is one request in a /debug/requests dump.
type DumpEntry struct {
	ID           string           `json:"id"`
	Method       string           `json:"method"`
	Path         string           `json:"path"`
	Range        string           `json:"range,omitempty"`
	Status       int              `json:"status"`
	Bytes        int64            `json:"bytes"`
	Start        time.Time        `json:"start"`
	DurMs        float64          `json:"dur_ms"`
	Verdict      string           `json:"verdict,omitempty"`
	Err          string           `json:"err,omitempty"`
	CacheHits    int64            `json:"cache_hits"`
	CacheMisses  int64            `json:"cache_misses"`
	DroppedSpans int32            `json:"dropped_spans,omitempty"`
	Stages       map[string]int64 `json:"stages"`
	Spans        []DumpSpan       `json:"spans"`
}

// Slowest snapshots the n slowest recent requests, slowest first. The
// conversion happens under the ring lock because a concurrent Finish
// may recycle an evicted trace.
func (tr *Tracer) Slowest(n int) []DumpEntry {
	if tr == nil || n <= 0 {
		return nil
	}
	tr.ringMu.Lock()
	defer tr.ringMu.Unlock()
	traces := make([]*Trace, len(tr.ring))
	copy(traces, tr.ring)
	sort.Slice(traces, func(i, j int) bool { return traces[i].dur > traces[j].dur })
	if n > len(traces) {
		n = len(traces)
	}
	out := make([]DumpEntry, 0, n)
	for _, t := range traces[:n] {
		out = append(out, t.dump())
	}
	return out
}

// dump converts a finished trace to its JSON form.
func (t *Trace) dump() DumpEntry {
	e := DumpEntry{
		ID:           t.id,
		Method:       t.method,
		Path:         t.path,
		Range:        t.rng,
		Status:       t.status,
		Bytes:        t.bytes,
		Start:        t.start,
		DurMs:        float64(t.dur) / float64(time.Millisecond),
		Verdict:      t.verdict,
		Err:          t.errCls,
		CacheHits:    t.hits.Load(),
		CacheMisses:  t.misses.Load(),
		DroppedSpans: t.dropped,
		Stages:       make(map[string]int64, numStages),
		Spans:        make([]DumpSpan, 0, t.nspans),
	}
	for st, ns := range t.stageTotals() {
		if ns > 0 {
			e.Stages[Stage(st).String()+"_us"] = ns / 1000
		}
	}
	for i := int32(0); i < t.nspans; i++ {
		sp := &t.spans[i]
		durUs := sp.durNs / 1000
		if sp.durNs < 0 {
			durUs = -1
		}
		e.Spans = append(e.Spans, DumpSpan{
			Stage:   sp.stage.String(),
			Parent:  sp.parent,
			StartUs: sp.startNs / 1000,
			DurUs:   durUs,
			N:       sp.n,
		})
	}
	return e
}

// ServeDebugRequests is the /debug/requests?n=K handler body: a JSON
// object with the K slowest recent requests' full span trees.
func (tr *Tracer) ServeDebugRequests(w http.ResponseWriter, r *http.Request) {
	n := 10
	if v := r.URL.Query().Get("n"); v != "" {
		if k, err := strconv.Atoi(v); err == nil && k > 0 {
			n = k
		}
	}
	entries := tr.Slowest(n) // nil-safe: a nil tracer dumps nothing
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(struct {
		Requests []DumpEntry `json:"requests"`
	}{Requests: entries})
}
