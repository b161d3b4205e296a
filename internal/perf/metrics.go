// Package perf holds the serving layer's runtime metrics: cheap atomic
// counters and gauges a daemon bumps on the request path, collected by a
// Registry that renders a Prometheus-style text exposition or JSON for a
// /metrics endpoint.
package perf

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready
// to use; all methods are safe for concurrent use.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (which should be non-negative; counters only go up).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (in-flight requests, resident
// bytes). The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram records durations (or any non-negative values) into
// HDR-style log-linear buckets and reports approximate quantiles.
// Observations are one atomic add per counter on the request path;
// quantile extraction walks the buckets at scrape time. Each
// power-of-two octave is split into 2^subBucketBits equal sub-buckets
// (values below the first octave are recorded exactly), so quantile
// upper bounds are within one sub-bucket — at most 3.1% — of the true
// value: fine enough that the load harness records its ground truth in
// the same type the server's /metrics quantiles come from, at 15 KiB
// per histogram.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

const (
	// subBucketBits selects 32 sub-buckets per octave: bucket width is
	// 1/32 of the octave's base, bounding relative quantile error at
	// (subBuckets+1)/subBuckets = 1.031x.
	subBucketBits = 5
	subBuckets    = 1 << subBucketBits
	// numBuckets covers every non-negative int64: the top value
	// (2^63 - 1) has exponent 62, landing in bucket
	// (62-subBucketBits+1)<<subBucketBits + 31 = 1887.
	numBuckets = (64-subBucketBits)<<subBucketBits + subBuckets
)

// Observe records one value. Non-positive values land in bucket 0.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	if v > 0 {
		h.sum.Add(v)
	}
	h.buckets[bucketFor(v)].Add(1)
}

// bucketFor maps a value to its log-linear bucket. Values below
// subBuckets get their own exact bucket; above that, the bucket is the
// exponent octave split subBuckets ways by the next mantissa bits. The
// mapping is continuous: bucketFor(subBuckets) == subBuckets, and each
// octave's last sub-bucket abuts the next octave's first.
func bucketFor(v int64) int {
	if v < subBuckets {
		if v < 0 {
			v = 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 - subBucketBits
	return int(uint64(v)>>e&(subBuckets-1)) + (e+1)<<subBucketBits
}

// bucketUpper is the exclusive upper bound of bucket i — the smallest
// value that does NOT land in it (for the exact low buckets, the value
// itself). The top buckets saturate at MaxInt64 rather than overflow.
func bucketUpper(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	e := i>>subBucketBits - 1
	base := uint64(subBuckets + i&(subBuckets-1) + 1)
	if bits.Len64(base)+e > 63 {
		return math.MaxInt64
	}
	return int64(base << e)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile returns an upper bound for the q-th quantile (0 < q <= 1)
// of everything observed so far, or 0 with no observations. The bound
// is the top of the sub-bucket holding the q-th sample: exact for
// values below subBuckets, at most 1.031x the true value elsewhere.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i := range h.buckets {
		seen += h.buckets[i].Load()
		if seen >= rank {
			return bucketUpper(i)
		}
	}
	return bucketUpper(numBuckets - 1)
}

// Histogram registers a histogram under name, exposing
// name_count, name_sum, and name_{p50,p95,p99,p999} samplers.
func (r *Registry) Histogram(name, help string) *Histogram {
	h := &Histogram{}
	r.register(name+"_count", help+" (observations)", func() float64 { return float64(h.count.Load()) })
	r.register(name+"_sum", help+" (sum)", func() float64 { return float64(h.sum.Load()) })
	for _, q := range []struct {
		label string
		q     float64
	}{{"p50", 0.50}, {"p95", 0.95}, {"p99", 0.99}, {"p999", 0.999}} {
		q := q
		r.register(name+"_"+q.label, help+" ("+q.label+", upper bound)",
			func() float64 { return float64(h.Quantile(q.q)) })
	}
	return h
}

// metric is one registered name with its sampler. labels, when
// non-empty, is the pre-rendered `{k="v",...}` suffix for the text
// exposition (only Info metrics carry labels; the JSON rendering keys
// on the bare name).
type metric struct {
	name   string
	help   string
	labels string
	sample func() float64
}

// Registry collects named metrics and renders them. Registration is
// expected at setup time; rendering may run concurrently with updates
// (samples are individually atomic, the exposition is not a consistent
// cut — the usual contract for scrape endpoints).
type Registry struct {
	mu      sync.Mutex
	metrics []metric
	byName  map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]int)}
}

// register adds (or replaces) a sampler under name.
func (r *Registry) register(name, help string, sample func() float64) {
	r.registerLabeled(name, help, "", sample)
}

func (r *Registry) registerLabeled(name, help, labels string, sample func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if i, ok := r.byName[name]; ok {
		r.metrics[i] = metric{name, help, labels, sample}
		return
	}
	r.byName[name] = len(r.metrics)
	r.metrics = append(r.metrics, metric{name, help, labels, sample})
}

// Counter registers and returns a counter under name.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, func() float64 { return float64(c.Load()) })
	return c
}

// Gauge registers and returns a gauge under name.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, func() float64 { return float64(g.Load()) })
	return g
}

// Func registers a computed metric, sampled at render time — the hook
// for values owned elsewhere (cache residency, hit rate).
func (r *Registry) Func(name, help string, sample func() float64) {
	r.register(name, help, sample)
}

// Info registers a constant-1 gauge whose information lives in its
// labels (the Prometheus build_info idiom). Labels render in the text
// exposition as `name{k="v",...} 1`, in given order; the JSON rendering
// keeps the bare name. Label values are escaped per the text format.
func (r *Registry) Info(name, help string, labels ...[2]string) {
	var b []byte
	for i, kv := range labels {
		if i == 0 {
			b = append(b, '{')
		} else {
			b = append(b, ',')
		}
		b = append(b, kv[0]...)
		b = append(b, '=', '"')
		for _, c := range []byte(kv[1]) {
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			default:
				b = append(b, c)
			}
		}
		b = append(b, '"')
	}
	if len(b) > 0 {
		b = append(b, '}')
	}
	r.registerLabeled(name, help, string(b), func() float64 { return 1 })
}

// Snapshot samples every metric once, in registration order.
func (r *Registry) Snapshot() (names []string, values []float64) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	names = make([]string, len(ms))
	values = make([]float64, len(ms))
	for i, m := range ms {
		names[i] = m.name
		values[i] = m.sample()
	}
	return names, values
}

// WriteText renders the registry in Prometheus text exposition style:
// a "# HELP" line per metric followed by "name value".
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	for _, m := range ms {
		if m.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "%s%s %s\n", m.name, m.labels, formatValue(m.sample())); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON renders the registry as a flat JSON object, keys sorted for
// stable output.
func (r *Registry) WriteJSON(w io.Writer) error {
	names, values := r.Snapshot()
	obj := make(map[string]float64, len(names))
	for i, n := range names {
		obj[n] = values[i]
	}
	keys := make([]string, 0, len(obj))
	for k := range obj {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	// Hand-rolled ordered emission: encoding/json writes maps in sorted
	// key order already, but emitting explicitly keeps integers integral
	// (no 1e+06 notation) for shell-friendly scraping.
	if _, err := io.WriteString(w, "{"); err != nil {
		return err
	}
	for i, k := range keys {
		sep := ","
		if i == 0 {
			sep = ""
		}
		kb, _ := json.Marshal(k)
		if _, err := fmt.Fprintf(w, "%s\n  %s: %s", sep, kb, formatValue(obj[k])); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n")
	return err
}

// formatValue renders integers without an exponent and floats compactly.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
