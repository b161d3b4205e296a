// Package obs is the serving stack's observability layer: per-request
// span traces, structured access logging, and the slow-request ring
// behind /debug/requests.
//
// The design constraint is the request path's cost budget. When tracing
// is off (no Tracer, or a context that never passed through Begin),
// every hook here is a nil-check on a context value — no clock reads,
// no allocation. When tracing is on, span records live in a fixed array
// inside a pooled Trace, and the context a span's children start under
// is the span's own slot, so steady-state tracing allocates one thing
// per request: the id string handed to the X-Request-Id header. The
// records recycle through a sync.Pool and the slow-request ring.
//
// Propagation rules: Tracer.Begin attaches a Trace to the request
// context; Start derives a child context carrying the new span's
// identity, so spans started under that context nest beneath it — from
// any goroutine, since slots are claimed by an atomic add and every
// counter is atomic. Layers that do many tiny operations (source
// ReadAt, response-body writes) record cumulative stage time via Cum
// or the SourceReaderAt wrapper instead of one span per call. Finish
// folds both into one total per stage, which is what the per-stage
// histograms on /metrics observe (once per request that touched the
// stage) and what the access log and /debug/requests dumps print.
package obs

import (
	"context"
	"io"
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
func (s Stage) String() string { return stageNames[s] }

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
	ref    ctxRef // the context Start returned: children attach to this slot
	stage  Stage
	parent int32
	// Nanoseconds on the trace's clock, durNs -1 until End; n is SetN's.
	startNs, durNs, n int64
}

// noopSpan is handed out when tracing is disabled. Shared and
// immutable: every method nil-checks the owning trace before writing.
var noopSpan = &Span{}

// End closes the span, recording its duration in the trace.
func (sp *Span) End() {
	if t := sp.ref.t; t != nil {
		sp.durNs = t.Elapsed().Nanoseconds() - sp.startNs
	}
}

// SetN attaches a numeric annotation (typically a block index) shown in
// span dumps.
func (sp *Span) SetN(n int64) {
	if sp.ref.t != nil {
		sp.n = n
	}
}

// Trace is one request's span record. Obtain via Tracer.Begin; the
// server finishes it exactly once, after the handler returns.
type Trace struct {
	tr    *Tracer
	root  ctxRef // the context Begin returned
	id    []byte
	line  []byte // the access line's buffer, kept across uses
	start time.Time

	method, path, rng, verdict, errCls string

	// Accumulators, live between Begin and Finish, which moves them into
	// the fields below and leaves them zero for the trace's next use.
	cumNs, cumN  [numStages]atomic.Int64
	nhits, nmiss atomic.Int64

	// Set by Finish; what the access line, the ring and dumps read.
	status              int
	dur                 time.Duration
	stageNs             [numStages]int64
	bytes, hits, misses int64

	// The span table comes last so that everything a request with a
	// handful of spans touches sits in the trace's first few cache lines.
	nspans atomic.Int32 // slots claimed; past maxSpans they were dropped
	spans  [maxSpans]Span
}

// ID returns the request id (echoed as X-Request-Id).
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	return string(t.id)
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

// Elapsed is the trace's clock: the time since Begin, one monotonic read
// where a time.Now/time.Since pair costs three. Not nil-safe — callers
// timing an operation have already checked that a trace is attached.
func (t *Trace) Elapsed() time.Duration { return time.Since(t.start) }

// Cum adds d to the stage's cumulative time and n to its op count. For
// layers where one span per operation would be noise: source reads, body
// writes, pipelined block decodes.
func (t *Trace) Cum(stage Stage, d time.Duration, n int64) {
	if t == nil {
		return
	}
	t.cumNs[stage].Add(d.Nanoseconds())
	t.cumN[stage].Add(n)
}

// CountCache tallies one block obtained from the decoded-block cache:
// hit means no decode ran on this request's behalf (resident, or
// coalesced onto another request's decode).
func (t *Trace) CountCache(hit bool) {
	if t == nil {
		return
	}
	if hit {
		t.nhits.Add(1)
	} else {
		t.nmiss.Add(1)
	}
}

// recorded is the part of the span table in use.
func (t *Trace) recorded() []Span {
	return t.spans[:min(t.nspans.Load(), maxSpans)]
}

// ctxKey is the context key the trace travels under.
type ctxKey struct{}

// ctxRef is a context carrying a trace and the span slot that spans
// started under it attach to (-1 at request level); everything else is
// the context it was derived from. It lives inside the Trace or the Span
// it names, so deriving one allocates nothing — and must not be used
// once the trace has finished.
type ctxRef struct {
	context.Context
	t   *Trace
	idx int32
}

func (r *ctxRef) Value(key any) any {
	if key == (ctxKey{}) {
		return r
	}
	return r.Context.Value(key)
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
// no trace attached, or a full span table (children then attach to the
// same parent), it returns ctx unchanged and a shared no-op span. Either
// way nothing is allocated. The returned span must be ended on every path.
func Start(ctx context.Context, stage Stage) (context.Context, *Span) {
	ref, ok := ctx.Value(ctxKey{}).(*ctxRef)
	if !ok {
		return ctx, noopSpan
	}
	t := ref.t
	i := t.nspans.Add(1) - 1
	if i >= maxSpans {
		return ctx, noopSpan
	}
	sp := &t.spans[i]
	*sp = Span{
		ref:     ctxRef{Context: ctx, t: t, idx: i},
		stage:   stage,
		parent:  ref.idx,
		startNs: t.Elapsed().Nanoseconds(),
		durNs:   -1,
	}
	return &sp.ref, sp
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
	t0 := r.t.Elapsed()
	n, err := r.ra.ReadAt(p, off)
	r.t.Cum(StageSourceRead, r.t.Elapsed()-t0, 1)
	return n, err
}
