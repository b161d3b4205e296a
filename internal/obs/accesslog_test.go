package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"gompresso/internal/perf"
)

// accessRecord is the access line's whole schema; a key outside it fails
// the strict decode below.
type accessRecord struct {
	Time        time.Time         `json:"time"`
	Level       string            `json:"level"`
	Msg         string            `json:"msg"`
	ID          string            `json:"id"`
	Method      string            `json:"method"`
	Path        string            `json:"path"`
	Status      int               `json:"status"`
	Bytes       int64             `json:"bytes"`
	DurMs       float64           `json:"dur_ms"`
	CacheHits   int64             `json:"cache_hits"`
	CacheMisses int64             `json:"cache_misses"`
	Range       *string           `json:"range"`
	Verdict     *string           `json:"verdict"`
	Err         *string           `json:"err"`
	Stages      *map[string]int64 `json:"stages"`
}

// accessInput is one request as the server would describe it to a trace.
type accessInput struct {
	method, path, rng, verdict, errCls string
	status                             int
	bytes                              int64
	stage                              bool // accrue time to a stage
}

// checkAccessLine finishes one traced request described by in and holds the
// line it logs to the schema: exactly one newline-terminated JSON object
// whose every field decodes to what went in, invalid UTF-8 replaced byte by
// byte with U+FFFD, optional keys present exactly when set.
func checkAccessLine(t *testing.T, in accessInput) {
	t.Helper()
	var buf bytes.Buffer
	tr := NewTracer(perf.NewRegistry(), &buf, 1)
	before := time.Now()
	_, trace := tr.Begin(context.Background(), in.method, in.path, in.rng)
	if in.stage {
		trace.Cum(StageBodyWrite, 1500*time.Microsecond, 1)
	}
	trace.CountCache(true)
	trace.SetVerdict(in.verdict)
	trace.SetError(in.errCls)
	id := trace.ID()
	trace.Finish(in.status, in.bytes)

	line := buf.Bytes()
	if n := bytes.Count(line, []byte("\n")); n != 1 || line[len(line)-1] != '\n' {
		t.Fatalf("want one newline-terminated line, got %d newlines: %q", n, line)
	}
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var rec accessRecord
	if err := dec.Decode(&rec); err != nil {
		t.Fatalf("access line is not the schema's JSON: %v\n%q", err, line)
	}
	valid := func(s string) string { return string([]rune(s)) }
	if rec.Msg != "request" || rec.ID != id || rec.Method != valid(in.method) || rec.Path != valid(in.path) ||
		rec.Status != in.status || rec.Bytes != in.bytes || rec.CacheHits != 1 || rec.CacheMisses != 0 {
		t.Errorf("fields differ from the request %+v:\n%q", in, line)
	}
	if rec.Time.Before(before.Truncate(0)) || rec.Time.After(time.Now()) || rec.DurMs <= 0 {
		t.Errorf("time %v / dur_ms %v outside the request's own bounds", rec.Time, rec.DurMs)
	}
	wantLevel := "INFO"
	if in.status >= 500 || (in.errCls != "" && in.errCls != "canceled") {
		wantLevel = "WARN"
	}
	if rec.Level != wantLevel {
		t.Errorf("level %s, want %s", rec.Level, wantLevel)
	}
	for _, opt := range []struct {
		key     string
		in      string
		present bool
		got     *string
	}{{"range", in.rng, in.rng != "", rec.Range}, {"verdict", in.verdict, in.verdict != "", rec.Verdict}, {"err", in.errCls, in.errCls != "", rec.Err}} {
		if (opt.got != nil) != opt.present || (opt.present && *opt.got != valid(opt.in)) {
			t.Errorf("optional key %q: got %v, want %q present=%v", opt.key, opt.got, opt.in, opt.present)
		}
	}
	if (rec.Stages != nil) != in.stage || (in.stage && (*rec.Stages)["body_write_us"] != 1500) {
		t.Errorf("stages = %v, want body_write_us=1500 present=%v", rec.Stages, in.stage)
	}
}

var hostileAccessInputs = []accessInput{
	{method: "GET", path: "/plain.gpz", status: 200, bytes: 1},
	{method: "GET", path: "/all.gpz", rng: "bytes=0-1", verdict: "quarantined", errCls: "corrupt", status: 502, stage: true},
	{method: "GET", path: `/q"uo"te\back\\slash`, rng: `bytes="0"`, status: 206, stage: true},
	{method: "GET", path: "/ctl\x00\x01\x1f\n\r\t\b\f\x7f", rng: "\x1b[31m", status: 404},
	{method: "G\xffET", path: "/bad\xc3\x28utf8\xe2\x82\xf0\x9f\x92", rng: "\x80", verdict: "\xfe", errCls: "\xed\xa0\x80", status: 200},
	{method: "GET", path: "/uni/é/日本/\u2028\u2029/😀", status: 200, stage: true},
	{method: "GET", path: "/" + strings.Repeat("a/\"", 1365) + "z", status: 414, bytes: 1 << 40},
	{method: "", path: "", status: 0, bytes: -1, errCls: "canceled"},
	{method: "HEAD", path: "/x", status: 200, errCls: "deadline", verdict: "shed"},
}

func TestAccessLineHostileInputs(t *testing.T) {
	for _, in := range hostileAccessInputs {
		checkAccessLine(t, in)
	}
}

func FuzzAccessLine(f *testing.F) {
	for _, in := range hostileAccessInputs {
		f.Add(in.method, in.path, in.rng, in.verdict, in.errCls, in.status, in.bytes, in.stage)
	}
	f.Fuzz(func(t *testing.T, method, path, rng, verdict, errCls string, status int, n int64, stage bool) {
		checkAccessLine(t, accessInput{method, path, rng, verdict, errCls, status, n, stage})
	})
}

// A ring of size 0 is no ring: Finish recycles every trace and dumps are
// empty (it used to index an empty slice).
func TestZeroRingSize(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(perf.NewRegistry(), &buf, 0)
	for i := 0; i < 3; i++ {
		_, trace := tr.Begin(context.Background(), "GET", "/x", "")
		trace.Finish(200, 0)
	}
	if d := tr.Slowest(5); len(d) != 0 {
		t.Fatalf("ring of size 0 holds %d entries", len(d))
	}
	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Fatalf("%d access lines, want 3", n)
	}
}

// offer's lock-free rejection must agree with the walk it stands in for:
// a full ring turns away what is no slower than its floor, admits what is,
// and gives an expired resident's slot — however slow it was — to any
// newcomer.
func TestRingFloorAndExpiry(t *testing.T) {
	tr := NewTracer(perf.NewRegistry(), nil, 2)
	finish := func(path string, d time.Duration) {
		_, trace := tr.Begin(context.Background(), "GET", path, "")
		trace.start = trace.start.Add(-d) // synthesize the latency
		trace.Finish(200, 0)
	}
	finish("/ancient", ringTTL+time.Minute) // slowest of all, and already expired
	finish("/b", 10*time.Millisecond)
	finish("/c", time.Millisecond) // under the floor, but /ancient has expired
	finish("/d", 5*time.Millisecond)
	finish("/e", 500*time.Microsecond) // under the floor, nothing expired
	var got []string
	for _, e := range tr.Slowest(10) {
		got = append(got, e.Path)
	}
	if strings.Join(got, " ") != "/b /d" {
		t.Fatalf("ring holds %v, want [/b /d]", got)
	}
	if floor := time.Duration(tr.floor.Load()); floor < 5*time.Millisecond || floor > 6*time.Millisecond {
		t.Fatalf("floor = %v, want /d's ~5ms", floor)
	}
}
