package obs

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

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
// request-id sequence, the trace pool, the access-log sink, and the
// slow-request ring. A nil *Tracer is valid and disables everything.
type Tracer struct {
	hists [numStages]*perf.Histogram
	seq   atomic.Uint64
	base  string
	epoch time.Time // ring times are nanoseconds since this
	pool  sync.Pool

	accessMu sync.Mutex
	access   io.Writer

	// floor and expiry summarize a full ring for offer: the shortest
	// resident duration, and when the oldest resident outlives ringTTL.
	// A trace no slower than floor that finished before expiry cannot
	// displace anything, which is decided without ringMu. Until the ring
	// fills, floor is -1 and everything goes through the lock.
	floor, expiry atomic.Int64
	ringCap       int
	ringMu        sync.Mutex
	ring          []*Trace
}

// NewTracer builds a Tracer, registering one stage_<name>_ns histogram
// per stage in reg. accessLog, when non-nil, receives one JSON line per
// finished request (WARN for 5xx), each in a single Write. ringSize bounds
// the slow-request ring; 0 means no ring.
func NewTracer(reg *perf.Registry, accessLog io.Writer, ringSize int) *Tracer {
	now := time.Now()
	tr := &Tracer{
		base:    strconv.FormatInt(now.UnixNano()&0xffffff^int64(idSeq.Add(1)<<24), 16),
		epoch:   now,
		access:  accessLog,
		ringCap: ringSize,
	}
	tr.pool.New = func() any { return new(Trace) }
	for st := Stage(0); st < numStages; st++ {
		tr.hists[st] = reg.Histogram("stage_"+st.String()+"_ns",
			"request time inside the "+st.String()+" stage in nanoseconds")
	}
	tr.floor.Store(-1)
	return tr
}

// Begin attaches a fresh trace to ctx and assigns the request id. A nil
// tracer returns ctx unchanged and a nil trace (every Trace method is
// nil-safe), so callers need no enabled check.
func (tr *Tracer) Begin(ctx context.Context, method, path, rng string) (context.Context, *Trace) {
	if tr == nil {
		return ctx, nil
	}
	t := tr.pool.Get().(*Trace)
	t.tr, t.method, t.path, t.rng = tr, method, path, rng
	t.verdict, t.errCls = "", ""
	t.id = strconv.AppendUint(append(append(t.id[:0], tr.base...), '-'), tr.seq.Add(1), 10)
	t.nspans.Store(0)
	//lint:allow poolescape the trace's own context points back at it
	t.root = ctxRef{Context: ctx, t: t, idx: -1}
	t.start = time.Now()
	//lint:allow poolescape sanctioned lifecycle helper; Finish recycles the trace into the pool
	return &t.root, t
}

// Finish completes the trace: stamps status and bytes, folds spans and
// accumulators into the per-stage totals (observing each touched stage's
// histogram once), emits the access log line, and either parks the trace
// in the slow-request ring or recycles it. Call exactly once, after the
// last span has ended and every request goroutine has returned.
func (t *Trace) Finish(status int, bytes int64) {
	if t == nil {
		return
	}
	tr := t.tr
	t.status, t.bytes, t.dur = status, bytes, t.Elapsed()

	// Stages overlap (a seq_decode span contains its source reads), so
	// the totals are per-stage attributions, not an exclusive partition.
	var ops [numStages]int64
	t.stageNs = [numStages]int64{}
	for i := range t.recorded() {
		if sp := &t.spans[i]; sp.durNs >= 0 {
			t.stageNs[sp.stage] += sp.durNs
			ops[sp.stage]++
		}
	}
	for st := range t.stageNs {
		t.stageNs[st] += take(&t.cumNs[st])
		if ops[st]+take(&t.cumN[st]) > 0 {
			tr.hists[st].Observe(t.stageNs[st])
		}
	}
	t.hits, t.misses = take(&t.nhits), take(&t.nmiss)

	if tr.access != nil {
		tr.logAccess(t)
	}
	if out := tr.offer(t); out != nil {
		tr.pool.Put(out)
	}
}

// take empties an accumulator, storing only when it holds something.
func take(a *atomic.Int64) (v int64) {
	if v = a.Load(); v != 0 {
		a.Store(0)
	}
	return v
}

// logAccess emits the one-line JSON access record, in the shape
// log/slog's JSON handler gave it (time, level, msg, then the request's
// keys; optional keys and empty stages omitted). 5xx responses log at
// WARN with the typed-error class, so backend failures (quarantine 502s,
// retry-exhausted reads) are never silent.
func (tr *Tracer) logAccess(t *Trace) {
	// 5xx answers and mid-body failures (a committed 200 that aborted
	// with a typed error) both warn; a client hanging up is routine.
	level := "INFO"
	if t.status >= 500 || (t.errCls != "" && t.errCls != "canceled") {
		level = "WARN"
	}
	b := append(t.line[:0], `{"time":"`...)
	b = t.start.Add(t.dur).AppendFormat(b, time.RFC3339Nano)
	b = append(append(b, `","level":"`...), level...)
	b = append(b, `","msg":"request","id":"`...)
	b = appendJSONString(append(append(b, t.id...), `","method":`...), t.method)
	b = appendJSONString(append(b, `,"path":`...), t.path)
	b = strconv.AppendInt(append(b, `,"status":`...), int64(t.status), 10)
	b = strconv.AppendInt(append(b, `,"bytes":`...), t.bytes, 10)
	b = strconv.AppendFloat(append(b, `,"dur_ms":`...), float64(t.dur)/float64(time.Millisecond), 'f', -1, 64)
	b = strconv.AppendInt(append(b, `,"cache_hits":`...), t.hits, 10)
	b = strconv.AppendInt(append(b, `,"cache_misses":`...), t.misses, 10)
	for _, kv := range [...][2]string{{"range", t.rng}, {"verdict", t.verdict}, {"err", t.errCls}} {
		if kv[1] != "" {
			b = append(append(append(b, `,"`...), kv[0]...), `":`...)
			b = appendJSONString(b, kv[1])
		}
	}
	sep := `,"stages":{"`
	for st, ns := range t.stageNs {
		if ns > 0 {
			b = append(append(append(b, sep...), stageNames[st]...), `_us":`...)
			b = strconv.AppendInt(b, ns/1000, 10)
			sep = `,"`
		}
	}
	if sep == `,"` {
		b = append(b, '}')
	}
	b = append(b, '}', '\n')
	t.line = b
	tr.accessMu.Lock()
	tr.access.Write(b) // a failing sink loses lines, not requests
	tr.accessMu.Unlock()
}

// appendJSONString appends s as a JSON string: quotes, backslashes and
// control bytes escaped, invalid UTF-8 replaced by U+FFFD.
func appendJSONString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for _, r := range s { // an invalid byte ranges as U+FFFD
		switch {
		case r == '"' || r == '\\':
			b = append(b, '\\', byte(r))
		case r < 0x20:
			b = append(b, '\\', 'u', '0', '0', hex[r>>4], hex[r&15])
		default:
			b = utf8.AppendRune(b, r)
		}
	}
	return append(b, '"')
}

// offer inserts t into the slow-request ring if it ranks among the
// slowest recent requests, returning the trace the pool gets back (the
// evicted entry, or t itself when it doesn't qualify; nil when the ring
// simply grew).
func (tr *Tracer) offer(t *Trace) *Trace {
	now := int64(t.start.Sub(tr.epoch) + t.dur)
	if tr.ringCap <= 0 || int64(t.dur) <= tr.floor.Load() && now <= tr.expiry.Load() {
		return t
	}
	tr.ringMu.Lock()
	defer tr.ringMu.Unlock()
	expires := func(e *Trace) int64 { return int64(e.start.Sub(tr.epoch) + ringTTL) }
	var evicted *Trace
	if len(tr.ring) < tr.ringCap {
		tr.ring = append(tr.ring, t)
	} else {
		// Replace the most replaceable entry: an expired one, else the
		// fastest, and that one only by a slower newcomer.
		rank := func(e *Trace) int64 {
			if expires(e) < now {
				return -1
			}
			return int64(e.dur)
		}
		victim := 0
		for i, e := range tr.ring {
			if rank(e) < rank(tr.ring[victim]) {
				victim = i
			}
		}
		if int64(t.dur) <= rank(tr.ring[victim]) {
			return t // the floor moved between the check and the lock
		}
		evicted, tr.ring[victim] = tr.ring[victim], t
	}
	if len(tr.ring) == tr.ringCap {
		floor, expiry := int64(t.dur), expires(t)
		for _, e := range tr.ring {
			floor, expiry = min(floor, int64(e.dur)), min(expiry, expires(e))
		}
		tr.floor.Store(floor)
		tr.expiry.Store(expiry)
	}
	return evicted
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
	traces := slices.Clone(tr.ring)
	sort.Slice(traces, func(i, j int) bool { return traces[i].dur > traces[j].dur })
	n = min(n, len(traces))
	out := make([]DumpEntry, 0, n)
	for _, t := range traces[:n] {
		out = append(out, t.dump())
	}
	return out
}

// dump converts a finished trace to its JSON form.
func (t *Trace) dump() DumpEntry {
	e := DumpEntry{
		ID:           t.ID(),
		Method:       t.method,
		Path:         t.path,
		Range:        t.rng,
		Status:       t.status,
		Bytes:        t.bytes,
		Start:        t.start,
		DurMs:        float64(t.dur) / float64(time.Millisecond),
		Verdict:      t.verdict,
		Err:          t.errCls,
		CacheHits:    t.hits,
		CacheMisses:  t.misses,
		DroppedSpans: max(t.nspans.Load()-maxSpans, 0),
		Stages:       make(map[string]int64, numStages),
		Spans:        make([]DumpSpan, 0, len(t.recorded())),
	}
	for st, ns := range t.stageNs {
		if ns > 0 {
			e.Stages[Stage(st).String()+"_us"] = ns / 1000
		}
	}
	for i := range t.recorded() {
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
	n, err := strconv.Atoi(r.URL.Query().Get("n"))
	if err != nil || n <= 0 {
		n = 10
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(map[string][]DumpEntry{"requests": tr.Slowest(n)}) // nil-safe: a nil tracer dumps nothing
}
