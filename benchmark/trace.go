package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around the
// layer's exported function. Parent is the span that caused it (-1 for a
// root); spans of one repetition or request share Op.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them out once, with each span
// name's self time, when the traced pass ends. The mutex is for the serve
// workloads, whose handler spans are recorded on the server's goroutine.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Op: op, Name: name, StartNs: now, EndNs: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) time.Duration {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].EndNs = now
	return time.Duration(now - t.spans[id].StartNs)
}

// selfSeconds sums, per span name, each span's duration minus the part its
// direct children cover. The caller holds t.mu.
func (t *tracer) selfSeconds() map[string]float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += float64(s.EndNs-s.StartNs-child[s.ID]) / 1e9
	}
	return self
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		SelfSeconds map[string]float64 `json:"self_seconds"`
		Spans       []span             `json:"spans"`
	}{t.selfSeconds(), t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// pass is the traced pass of one workload: the tracer, the time it may
// take, and the per-object samples its probes collect. A probe's time for a
// metric is the sum over probe objects of each object's median, so drift
// and outliers are cut per object while every family still counts.
type pass struct {
	tr      *tracer
	sz      sizes
	budget  time.Duration
	m       *metricSet
	samples map[string]map[int][]float64
}

func newPass(sz sizes, budget time.Duration, m *metricSet) *pass {
	return &pass{tr: newTracer(), sz: sz, budget: budget, m: m, samples: map[string]map[int][]float64{}}
}

// timed runs fn inside a span and returns how long it took.
func (p *pass) timed(name string, parent, op int, fn func()) float64 {
	id := p.tr.begin(name, parent, op)
	fn()
	return p.tr.end(id).Seconds()
}

func (p *pass) add(name string, obj int, v float64) {
	if p.samples[name] == nil {
		p.samples[name] = map[int][]float64{}
	}
	p.samples[name][obj] = append(p.samples[name][obj], v)
}

// sum is the sum over objects of the per-object median.
func (p *pass) sum(name string) float64 {
	var s float64
	for _, xs := range p.samples[name] {
		s += median(xs)
	}
	return s
}

// mean is the mean over objects of the per-object median, for ratios.
func (p *pass) mean(name string) float64 {
	if len(p.samples[name]) == 0 {
		return 0
	}
	return p.sum(name) / float64(len(p.samples[name]))
}

// reps calls fn(0), fn(1), ... for the given share of the pass's budget and
// at least 3*MinReps times (the issue's "medians over >= 15 repetitions"),
// ending on a whole cycle so that probes rotating over cycle objects sample
// each equally often.
func (p *pass) reps(share float64, cycle int, fn func(rep int) error) error {
	budget := time.Duration(share * float64(p.budget))
	start := time.Now()
	for rep := 0; rep < 3*p.sz.MinReps || time.Since(start) < budget || rep%cycle != 0; rep++ {
		if err := fn(rep); err != nil {
			return err
		}
	}
	return nil
}

func perSecond(bytes, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return bytes / 1e6 / seconds
}

func ratioOf(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
