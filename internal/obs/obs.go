// Package obs is the serving stack's observability layer: per-request
// span traces, structured access logging, and the slow-request ring
// behind /debug/requests.
//
// The design constraint is the request path's cost budget. When tracing
// is off (no Tracer, or a context that never passed through Begin),
// every hook here is a nil-check on a context value — no clock reads,
// no allocation. When tracing is on, span records live in a fixed array
// inside a pooled Trace, so steady-state tracing allocates only the
// small context nodes that carry parentage; the records themselves
// recycle through a sync.Pool and the slow-request ring.
//
// Propagation rules: Tracer.Begin attaches a Trace to the request
// context; Start derives a child context carrying the new span's
// identity, so spans started under that context nest beneath it — from
// any goroutine, since the span table is append-locked and every
// counter is atomic. Layers that do many tiny operations (source
// ReadAt, response-body writes) record cumulative stage time via Cum
// or the SourceReaderAt wrapper instead of one span per call; the
// totals surface as per-stage histograms on /metrics and as stage
// sums in the access log and /debug/requests dumps.
package obs

import (
	"context"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one instrumented phase of the serving path. Stages are a
// closed set so per-trace accumulation is a fixed array and the
// /metrics histogram families are stable names.
type Stage uint8

const (
	// StageQueueWait is time queued on the concurrency limiter.
	StageQueueWait Stage = iota
	// StageResolve is path resolution: stat, open, header sniff, index load.
	StageResolve
	// StageSourceRead is time inside source ReadAt calls (compressed bytes).
	StageSourceRead
	// StageCacheLookup is block-cache GetOrDecode wall time — a hit's
	// copy, a coalesced wait, or (as a child span) a winner's decode.
	StageCacheLookup
	// StageBlockDecode is entropy/LZ decode of one block or chunk.
	StageBlockDecode
	// StageSeqDecode is one attempt at an object's one-time block-access
	// discovery pass: an index load or scan, or a foreign stream's
	// counting decode.
	StageSeqDecode
	// StageBodyWrite is time inside response-body writes.
	StageBodyWrite

	numStages
)

var stageNames = [numStages]string{
	"queue_wait",
	"resolve",
	"source_read",
	"cache_lookup",
	"block_decode",
	"seq_decode",
	"body_write",
}

// String returns the stage's metric-safe name.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Stages returns the stage names in order — the pinned set behind the
// stage_<name>_ns histogram families.
func Stages() []string { return stageNames[:] }

// maxSpans bounds one trace's span table. A typical range request
// records ~2 spans per overlapped block plus a handful of request-level
// spans; 192 covers a 24-block (6 MiB at the default block size) range
// with room to spare. Excess spans are counted, not recorded.
const maxSpans = 192

// Span is one timed operation inside a trace. Spans are slots in the
// owning Trace's fixed table — never allocated individually — and a
// started span must be ended on every path (enforced by the
// spanbalance analyzer).
type Span struct {
	t       *Trace
	stage   Stage
	parent  int32
	startNs int64
	durNs   int64
	n       int64
}

// noopSpan is handed out when tracing is disabled. Shared and
// immutable: every method nil-checks the owning trace before writing.
var noopSpan = &Span{}

// End closes the span, recording its duration in the trace and the
// stage histogram.
func (sp *Span) End() {
	if sp.t == nil {
		return
	}
	sp.durNs = time.Since(sp.t.start).Nanoseconds() - sp.startNs
	sp.t.tr.observe(sp.stage, sp.durNs)
}

// SetN attaches a numeric annotation (typically a block index) shown in
// span dumps.
func (sp *Span) SetN(n int64) {
	if sp.t != nil {
		sp.n = n
	}
}

// Trace is one request's span record. Obtain via Tracer.Begin; the
// server finishes it exactly once, after the handler returns.
type Trace struct {
	tr      *Tracer
	id      string
	method  string
	path    string
	rng     string
	status  int
	bytes   int64
	verdict string
	errCls  string
	start   time.Time
	dur     time.Duration

	mu      sync.Mutex
	nspans  int32
	dropped int32
	spans   [maxSpans]Span

	cumNs  [numStages]atomic.Int64
	cumN   [numStages]atomic.Int64
	hits   atomic.Int64
	misses atomic.Int64
}

// ID returns the request id (echoed as X-Request-Id).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// SetVerdict records a serving-policy outcome ("shed", "quarantined")
// for the access log and dumps.
func (t *Trace) SetVerdict(v string) {
	if t != nil {
		t.verdict = v
	}
}

// SetError records the request's typed-error class ("corrupt",
// "canceled", "deadline", "backend", "panic").
func (t *Trace) SetError(class string) {
	if t != nil {
		t.errCls = class
	}
}

// Cum adds d to the stage's cumulative time (and n to its op count) and
// observes d in the stage histogram. For layers where one span per
// operation would be noise: source reads, body writes, pipelined block
// decodes.
func (t *Trace) Cum(stage Stage, d time.Duration, n int64) {
	if t == nil {
		return
	}
	t.cumNs[stage].Add(d.Nanoseconds())
	t.cumN[stage].Add(n)
	t.tr.observe(stage, d.Nanoseconds())
}

// CountCache tallies one block obtained from the decoded-block cache:
// hit means no decode ran on this request's behalf (resident, or
// coalesced onto another request's decode).
func (t *Trace) CountCache(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.hits.Add(1)
	} else {
		t.misses.Add(1)
	}
}

// startSpan claims the next slot. The table lock is held only for slot
// assignment; the record is written before the span pointer escapes.
func (t *Trace) startSpan(stage Stage, parent int32) (*Span, int32) {
	t.mu.Lock()
	if t.nspans >= maxSpans {
		t.dropped++
		t.mu.Unlock()
		return noopSpan, -1
	}
	i := t.nspans
	t.nspans++
	t.mu.Unlock()
	sp := &t.spans[i]
	sp.t = t
	sp.stage = stage
	sp.parent = parent
	sp.startNs = time.Since(t.start).Nanoseconds()
	sp.durNs = -1
	sp.n = 0
	return sp, i
}

func (t *Trace) reset(tr *Tracer, id, method, path, rng string) {
	t.tr = tr
	t.id = id
	t.method = method
	t.path = path
	t.rng = rng
	t.status = 0
	t.bytes = 0
	t.verdict = ""
	t.errCls = ""
	t.start = time.Now()
	t.dur = 0
	t.nspans = 0
	t.dropped = 0
	for i := range t.cumNs {
		t.cumNs[i].Store(0)
		t.cumN[i].Store(0)
	}
	t.hits.Store(0)
	t.misses.Store(0)
}

// ctxKey carries the trace (and current parent span) through contexts.
type ctxKey struct{}

type ctxRef struct {
	t      *Trace
	parent int32
}

// FromContext returns the trace attached by Tracer.Begin, or nil. The
// lookup is the disabled path's entire cost.
func FromContext(ctx context.Context) *Trace {
	if ref, ok := ctx.Value(ctxKey{}).(*ctxRef); ok {
		return ref.t
	}
	return nil
}

// Start opens a span of the given stage under ctx's current span,
// returning a derived context (for nesting children) and the span. With
// no trace attached it returns ctx unchanged and a shared no-op span —
// zero allocation. The returned span must be ended on every path.
func Start(ctx context.Context, stage Stage) (context.Context, *Span) {
	ref, ok := ctx.Value(ctxKey{}).(*ctxRef)
	if !ok {
		return ctx, noopSpan
	}
	sp, idx := ref.t.startSpan(stage, ref.parent)
	if sp.t == nil {
		return ctx, sp // table full: children attach to the same parent
	}
	return context.WithValue(ctx, ctxKey{}, &ctxRef{t: ref.t, parent: idx}), sp
}

// Cum is Trace.Cum through a context, for layers that hold a ctx but
// not the trace.
func Cum(ctx context.Context, stage Stage, d time.Duration, n int64) {
	FromContext(ctx).Cum(stage, d, n)
}

// SourceReaderAt wraps ra so every ReadAt accrues to the trace's
// source_read stage. Without a trace it returns ra unchanged, so the
// disabled path pays nothing — not even the indirection.
func SourceReaderAt(ctx context.Context, ra io.ReaderAt) io.ReaderAt {
	t := FromContext(ctx)
	if t == nil {
		return ra
	}
	return &tracedReaderAt{t: t, ra: ra}
}

type tracedReaderAt struct {
	t  *Trace
	ra io.ReaderAt
}

func (r *tracedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := r.ra.ReadAt(p, off)
	r.t.Cum(StageSourceRead, time.Since(t0), 1)
	return n, err
}
