package perf

import (
	"bytes"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("counter = %d", c.Load())
	}
	var g Gauge
	g.Inc()
	g.Add(10)
	g.Dec()
	if g.Load() != 10 {
		t.Fatalf("gauge = %d", g.Load())
	}
	g.Set(-3)
	if g.Load() != -3 {
		t.Fatalf("gauge = %d", g.Load())
	}
}

func TestRegistryText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "requests served")
	r.Gauge("inflight", "").Set(2)
	r.Func("hit_rate", "cache hit rate", func() float64 { return 0.25 })
	c.Add(7)

	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP requests_total requests served\n",
		"requests_total 7\n",
		"inflight 2\n",
		"hit_rate 0.25\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "# HELP inflight") {
		t.Fatalf("empty help rendered:\n%s", out)
	}
}

func TestRegistryJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "").Add(1000000) // must not render as 1e+06
	r.Func("a_rate", "", func() float64 { return 0.5 })

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON %q: %v", buf.String(), err)
	}
	if got["b_total"] != 1000000 || got["a_rate"] != 0.5 {
		t.Fatalf("got %v", got)
	}
	if strings.Contains(buf.String(), "e+") {
		t.Fatalf("exponent notation in JSON: %s", buf.String())
	}
}

func TestRegistryReplaceAndConcurrency(t *testing.T) {
	r := NewRegistry()
	r.Func("x", "", func() float64 { return 1 })
	r.Func("x", "", func() float64 { return 2 }) // replace, not duplicate
	names, values := r.Snapshot()
	if len(names) != 1 || values[0] != 2 {
		t.Fatalf("snapshot = %v %v", names, values)
	}

	c := r.Counter("n", "")
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Inc()
				var buf bytes.Buffer
				r.WriteText(&buf)
			}
		}()
	}
	wg.Wait()
	if c.Load() != 4000 {
		t.Fatalf("counter = %d", c.Load())
	}
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("req_ns", "request latency")
	if got := h.Quantile(0.5); got != 0 {
		t.Fatalf("empty histogram p50 = %d", got)
	}
	// 99 fast observations around 1000, one slow outlier at 1<<20.
	for i := 0; i < 99; i++ {
		h.Observe(1000)
	}
	h.Observe(1 << 20)
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	// Log-linear buckets, 32 per octave: 1000 lands in [992,1008) → bound 1008.
	if p50 := h.Quantile(0.50); p50 != 1008 {
		t.Fatalf("p50 = %d, want 1008", p50)
	}
	if p95 := h.Quantile(0.95); p95 != 1008 {
		t.Fatalf("p95 = %d, want 1008", p95)
	}
	// The outlier is exactly the 100th sample: p99 rank 99 is still fast,
	// p100 (q=1) must see it. 1<<20 lands in [1<<20, 33<<15) → bound 33<<15.
	if p100 := h.Quantile(1); p100 != 33<<15 {
		t.Fatalf("p100 = %d, want %d", p100, int64(33)<<15)
	}
	// The registry exposes derived samplers.
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"req_ns_count 100", "req_ns_p50 1008", "req_ns_p99 "} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Non-positive observations count but go to bucket zero, whose
	// upper bound is exact: 0.
	h2 := Histogram{}
	h2.Observe(0)
	h2.Observe(-5)
	if h2.Count() != 2 || h2.Quantile(0.5) != 0 {
		t.Fatalf("zero-bucket handling: count=%d q=%d", h2.Count(), h2.Quantile(0.5))
	}
}

// TestBucketMapping pins the log-linear bucket layout: exact low
// buckets, continuity across octave boundaries, and bounds that
// actually contain their values.
func TestBucketMapping(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 11, 15, 16, 31, 32, 33, 63, 64, 65,
		1000, 1023, 1024, 1<<20 - 1, 1 << 20, 1<<62 - 1, 1 << 62, 1<<63 - 1} {
		i := bucketFor(v)
		if i < prev {
			t.Fatalf("bucket index not monotone at %d: %d < %d", v, i, prev)
		}
		prev = i
		if i < subBuckets {
			continue // exact buckets, checked below
		}
		// The bucket below ends where this one starts (the abutment loop
		// below); the top bucket's bound saturates at MaxInt64 (inclusive).
		lo, hi := bucketUpper(i-1), bucketUpper(i)
		if (i > subBuckets && v < lo) || (v >= hi && hi != math.MaxInt64) {
			t.Fatalf("value %d outside its bucket bounds [%d,%d)", v, lo, hi)
		}
	}
	// Exact small buckets: one value per bucket below subBuckets.
	for v := int64(0); v < subBuckets; v++ {
		if got := bucketFor(v); got != int(v) {
			t.Fatalf("bucketFor(%d) = %d, want exact", v, got)
		}
	}
	// Adjacent buckets abut: each log-linear bucket's upper bound is the
	// next bucket's lower bound (no gaps, no overlaps). The exact low
	// buckets report the value itself, so they are excluded.
	for i := subBuckets; i < numBuckets-1; i++ {
		up := bucketUpper(i)
		if up == math.MaxInt64 {
			break // top reachable bucket: bound saturates
		}
		if got := bucketFor(up); got != i+1 {
			t.Fatalf("bucketFor(bucketUpper(%d)=%d) = %d, want %d", i, up, got, i+1)
		}
	}
}

// TestHistogramQuantileError bounds the refined quantile estimate
// against an exact oracle: the estimate must never be below the true
// quantile and at most one sub-bucket (3.1%) above it — the property
// that makes "did p99 move 5%" SLO gating meaningful, and lets the load
// harness keep its ground truth in the same type.
func TestHistogramQuantileError(t *testing.T) {
	// Deterministic heavy-tailed-ish sample: a quadratic ramp with a
	// sprinkle of large outliers, microsecond-to-second scale.
	var h Histogram
	var vals []int64
	state := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	for i := 0; i < 20000; i++ {
		v := int64(1000 + (next() % 1000000))
		if i%97 == 0 {
			v *= int64(1 + next()%500) // tail out to ~5e8
		}
		vals = append(vals, v)
		h.Observe(v)
	}
	sorted := append([]int64(nil), vals...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, q := range []float64{0.5, 0.9, 0.95, 0.99, 0.999, 1} {
		rank := int64(q * float64(len(sorted)))
		if rank < 1 {
			rank = 1
		}
		exact := sorted[rank-1]
		est := h.Quantile(q)
		if est < exact {
			t.Fatalf("q=%g: estimate %d below exact %d", q, est, exact)
		}
		if est*subBuckets > exact*(subBuckets+1) {
			t.Fatalf("q=%g: estimate %d exceeds exact %d by more than one sub-bucket (3.1%%)", q, est, exact)
		}
	}
}
