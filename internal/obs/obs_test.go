package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"strings"
	"testing"
	"time"

	"gompresso/internal/perf"
)

func TestDisabledPathIsNoop(t *testing.T) {
	ctx := context.Background()
	if tr := FromContext(ctx); tr != nil {
		t.Fatalf("FromContext on bare ctx = %v, want nil", tr)
	}
	ctx2, sp := Start(ctx, StageResolve)
	if ctx2 != ctx {
		t.Fatal("Start without a trace must return ctx unchanged")
	}
	sp.SetN(7)
	sp.End() // must not panic
	FromContext(ctx).Cum(StageBodyWrite, time.Millisecond, 1)

	ra := strings.NewReader("hello")
	if got := SourceReaderAt(ctx, ra); got != io.ReaderAt(ra) {
		t.Fatal("SourceReaderAt without a trace must return the reader unchanged")
	}

	var nilTracer *Tracer
	ctx3, trace := nilTracer.Begin(ctx, "GET", "/x", "")
	if ctx3 != ctx || trace != nil {
		t.Fatal("nil Tracer.Begin must be a no-op")
	}
	trace.SetVerdict("shed")
	trace.SetError("backend")
	trace.CountCache(true)
	trace.Finish(200, 1)
	if d := nilTracer.Slowest(5); d != nil {
		t.Fatalf("nil Tracer.Slowest = %v, want nil", d)
	}
}

func TestSpansNestAndDump(t *testing.T) {
	reg := perf.NewRegistry()
	tr := NewTracer(reg, nil, 4)
	ctx, trace := tr.Begin(context.Background(), "GET", "/a.gz", "bytes=0-99")
	if trace.ID() == "" {
		t.Fatal("empty request id")
	}

	ctx1, outer := Start(ctx, StageCacheLookup)
	outer.SetN(3)
	_, inner := Start(ctx1, StageBlockDecode)
	inner.End()
	outer.End()
	trace.Cum(StageSourceRead, 2*time.Millisecond, 1)
	trace.CountCache(false)
	trace.CountCache(true)
	trace.Finish(200, 100)

	dumps := tr.Slowest(10)
	if len(dumps) != 1 {
		t.Fatalf("Slowest = %d entries, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Status != 200 || d.Bytes != 100 || d.Range != "bytes=0-99" {
		t.Fatalf("dump header mismatch: %+v", d)
	}
	if d.CacheHits != 1 || d.CacheMisses != 1 {
		t.Fatalf("cache counters = %d/%d, want 1/1", d.CacheHits, d.CacheMisses)
	}
	if len(d.Spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(d.Spans))
	}
	if d.Spans[0].Stage != "cache_lookup" || d.Spans[0].Parent != -1 || d.Spans[0].N != 3 {
		t.Fatalf("outer span: %+v", d.Spans[0])
	}
	if d.Spans[1].Stage != "block_decode" || d.Spans[1].Parent != 0 {
		t.Fatalf("inner span should parent to slot 0: %+v", d.Spans[1])
	}
	if d.Stages["source_read_us"] < 1900 {
		t.Fatalf("source_read_us = %d, want ~2000", d.Stages["source_read_us"])
	}
	// The stage histograms observed the operations.
	var buf bytes.Buffer
	reg.WriteJSON(&buf)
	var m map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatal(err)
	}
	if m["stage_cache_lookup_ns_count"] != 1 || m["stage_block_decode_ns_count"] != 1 || m["stage_source_read_ns_count"] != 1 {
		t.Fatalf("histogram counts off: %v", m)
	}
}

func TestSpanTableOverflowCounts(t *testing.T) {
	tr := NewTracer(perf.NewRegistry(), nil, 2)
	ctx, trace := tr.Begin(context.Background(), "GET", "/x", "")
	for i := 0; i < maxSpans+5; i++ {
		_, sp := Start(ctx, StageBlockDecode)
		sp.End()
	}
	trace.Finish(200, 0)
	d := tr.Slowest(1)[0]
	if len(d.Spans) != maxSpans {
		t.Fatalf("spans = %d, want %d", len(d.Spans), maxSpans)
	}
	if d.DroppedSpans != 5 {
		t.Fatalf("dropped = %d, want 5", d.DroppedSpans)
	}
}

func TestRingKeepsSlowest(t *testing.T) {
	tr := NewTracer(perf.NewRegistry(), nil, 2)
	mk := func(path string, d time.Duration) {
		_, trace := tr.Begin(context.Background(), "GET", path, "")
		trace.start = trace.start.Add(-d) // synthesize the latency
		trace.Finish(200, 0)
	}
	mk("/fast", 1*time.Millisecond)
	mk("/slow", 100*time.Millisecond)
	mk("/mid", 50*time.Millisecond)
	mk("/tiny", 100*time.Microsecond) // should not displace anything
	got := tr.Slowest(10)
	if len(got) != 2 {
		t.Fatalf("ring = %d entries, want 2", len(got))
	}
	if got[0].Path != "/slow" || got[1].Path != "/mid" {
		t.Fatalf("ring order = %s, %s; want /slow, /mid", got[0].Path, got[1].Path)
	}
}

func TestAccessLogJSON(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(perf.NewRegistry(), &buf, 2)
	ctx, trace := tr.Begin(context.Background(), "GET", "/obj.gz", "bytes=1-2")
	_, sp := Start(ctx, StageResolve)
	sp.End()
	trace.SetVerdict("quarantined")
	trace.SetError("backend")
	trace.Finish(502, 0)

	line := buf.String()
	var rec map[string]any
	if err := json.Unmarshal([]byte(line), &rec); err != nil {
		t.Fatalf("access log not JSON: %v\n%s", err, line)
	}
	for _, k := range []string{"id", "method", "path", "status", "bytes", "dur_ms", "cache_hits", "cache_misses", "stages", "range", "verdict", "err"} {
		if _, ok := rec[k]; !ok {
			t.Errorf("access log missing key %q: %s", k, line)
		}
	}
	if rec["level"] != "WARN" {
		t.Errorf("5xx must log at WARN, got %v", rec["level"])
	}
	if rec["verdict"] != "quarantined" || rec["err"] != "backend" {
		t.Errorf("verdict/err = %v/%v", rec["verdict"], rec["err"])
	}
}

func TestSourceReaderAtAccrues(t *testing.T) {
	tr := NewTracer(perf.NewRegistry(), nil, 2)
	ctx, trace := tr.Begin(context.Background(), "GET", "/x", "")
	ra := SourceReaderAt(ctx, strings.NewReader("0123456789"))
	var p [4]byte
	if n, err := ra.ReadAt(p[:], 2); err != nil || n != 4 {
		t.Fatalf("ReadAt = %d, %v", n, err)
	}
	trace.Finish(200, 4)
	d := tr.Slowest(1)[0]
	if _, ok := d.Stages["source_read_us"]; !ok {
		t.Fatalf("source_read stage missing from %v", d.Stages)
	}
}

func TestStagesPinned(t *testing.T) {
	want := []string{"queue_wait", "resolve", "source_read", "cache_lookup", "block_decode", "seq_decode", "body_write"}
	got := Stages()
	if len(got) != len(want) {
		t.Fatalf("Stages() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("stage %d = %q, want %q (stage names are a pinned API)", i, got[i], want[i])
		}
	}
}
