// Package loadgen is the open-loop load harness for gompresso serve:
// it fires a seeded, zipfian-popularity, mixed-range-size request
// schedule at a target (in-process handler or remote URL) at a fixed
// arrival rate, and records ground-truth latency for every request in
// an HDR-style histogram.
//
// Open-loop is the load-bearing property. A closed-loop client (fixed
// worker pool, next request after the previous response) slows its own
// arrival rate exactly when the server degrades, so the latencies it
// reports omit the queueing delay real independent clients would see.
// Here every request's latency clock starts at its *scheduled* arrival
// instant: if the server (or the client's own dispatch loop) falls
// behind, that lag is measured, not absorbed.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"gompresso/internal/perf"
)

// Config describes one load run.
type Config struct {
	// BaseURL is the target server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Client issues the requests; nil gets a keep-alive tuned default.
	Client *http.Client
	// Objects is the corpus the schedule draws from (names resolve
	// relative to BaseURL). Sizes bound the generated ranges.
	Objects []Object
	// RPS is the open-loop arrival rate (Poisson mean), required > 0.
	RPS float64
	// Duration is the total run length, split into three equal phases:
	// cold, warm, hot.
	Duration time.Duration
	// ZipfS is the popularity exponent (0 = uniform).
	ZipfS float64
	// Ranges is the request-size mix; nil = DefaultRangeMix.
	Ranges []RangeClass
	// Deadline bounds each request; 0 = no per-request deadline.
	Deadline time.Duration
	// Seed fixes the whole schedule.
	Seed uint64
	// Closed switches the run to closed-loop: at most one request in
	// flight, the next dispatched at its scheduled instant or when the
	// previous completes, whichever is later. This deliberately gives up
	// the open-loop property — use it only for clock calibration, where
	// the point is comparing the harness's service clock against the
	// server's own histogram over *isolated* requests. Under concurrency
	// on a small box, tail requests accumulate client-side scheduling
	// and socket-drain time the server clock cannot see, so an open-loop
	// tail is the wrong instrument for validating /metrics; a serial run
	// makes both clocks bracket the same work.
	Closed bool
}

// Phase names, in order. Cold starts against empty caches, warm and hot
// measure the steady state the SLO actually covers.
var PhaseNames = [3]string{"cold", "warm", "hot"}

// PhaseReport is the measured outcome of one phase (or the whole run).
type PhaseReport struct {
	Phase    string `json:"phase"`
	Requests int64  `json:"requests"`
	OK       int64  `json:"ok"`
	Shed     int64  `json:"shed"`
	Timeout  int64  `json:"timeout"`
	Errors   int64  `json:"errors"`
	// ErrorRate counts everything that is not an intentional response:
	// timeouts + transport/status errors, over all requests. Sheds are
	// reported separately — a 503 with Retry-After is the server
	// working as designed, and folding it into errors would hide real
	// failures behind load shedding.
	ErrorRate float64 `json:"error_rate"`
	ShedRate  float64 `json:"shed_rate"`
	// Latency quantiles over OK responses only, milliseconds. Shed and
	// errored requests answer fast for the wrong reason; mixing them in
	// would flatter the tail.
	P50Ms  float64 `json:"p50_ms"`
	P95Ms  float64 `json:"p95_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
	MeanMs float64 `json:"mean_ms"`
	// Service latency is clocked from the moment the request is actually
	// sent, not its scheduled arrival — the per-request cost the server
	// itself can see. The headline quantiles above charge open-loop
	// dispatch lag (the SLO view); these don't, which makes them the
	// number to cross-check against the server's own /metrics histogram.
	ServiceP50Ms float64 `json:"service_p50_ms"`
	ServiceP99Ms float64 `json:"service_p99_ms"`
	// AchievedRPS is completions/second; under open-loop overload it
	// stays below the configured rate while latency grows.
	AchievedRPS float64 `json:"achieved_rps"`
	Bytes       int64   `json:"bytes"`
}

// Report is the full result of a run.
type Report struct {
	Target   string        `json:"target"`
	RPS      float64       `json:"rps"`
	Duration float64       `json:"duration_s"`
	ZipfS    float64       `json:"zipf_s"`
	Objects  int           `json:"objects"`
	Seed     uint64        `json:"seed"`
	Overall  PhaseReport   `json:"overall"`
	Phases   []PhaseReport `json:"phases"`
	// Slowest holds the top requests by open-loop latency, worst first.
	// IDs come from the server's X-Request-Id response header, so a slow
	// entry here can be joined against the server's /debug/requests dump
	// and its access log — that join is how a tail spike is attributed
	// to a stage rather than argued about.
	Slowest []SlowRequest `json:"slowest,omitempty"`
}

// SlowRequest is one entry in Report.Slowest.
type SlowRequest struct {
	ID      string `json:"id,omitempty"` // server-assigned request id ("" if tracing is off)
	Object  string `json:"object"`
	Range   string `json:"range,omitempty"`
	Phase   string `json:"phase"`
	Outcome string `json:"outcome"`
	// LatencyMs is the open-loop latency (from intended arrival);
	// ServiceMs is from the actual send.
	LatencyMs float64 `json:"latency_ms"`
	ServiceMs float64 `json:"service_ms"`
	// StageUs is the server-side per-stage breakdown, merged in from
	// /debug/requests by the CLI when the ids can be joined; nil when
	// the server no longer remembers the request.
	StageUs map[string]int64 `json:"stage_us,omitempty"`
}

// SlowestSize is how many requests Run keeps in Report.Slowest.
const SlowestSize = 10

// slowTracker keeps the top-K requests by open-loop latency.
type slowTracker struct {
	mu      sync.Mutex
	entries []SlowRequest
}

func (s *slowTracker) add(e SlowRequest) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.entries) < SlowestSize {
		s.entries = append(s.entries, e)
		return
	}
	min := 0
	for i := 1; i < len(s.entries); i++ {
		if s.entries[i].LatencyMs < s.entries[min].LatencyMs {
			min = i
		}
	}
	if e.LatencyMs > s.entries[min].LatencyMs {
		s.entries[min] = e
	}
}

// snapshot returns the tracked entries sorted worst-first.
func (s *slowTracker) snapshot() []SlowRequest {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]SlowRequest(nil), s.entries...)
	sort.Slice(out, func(i, j int) bool { return out[i].LatencyMs > out[j].LatencyMs })
	return out
}

func outcomeName(o int) string {
	switch o {
	case outcomeOK:
		return "ok"
	case outcomeShed:
		return "shed"
	case outcomeTimeout:
		return "timeout"
	default:
		return "error"
	}
}

// phaseStats accumulates one phase while the run is live.
type phaseStats struct {
	// Latencies of OK requests, in the histogram the server's /metrics
	// quantiles come from (32 sub-buckets per octave, within 3.1% of
	// truth): harness and server are compared like for like.
	lat      perf.Histogram // open-loop latency (from intended arrival)
	svc      perf.Histogram // service latency (from actual send)
	latMax   time.Duration
	latSum   time.Duration
	requests int64
	ok       int64
	shed     int64
	timeout  int64
	errors   int64
	bytes    int64
	mu       sync.Mutex // guards the plain counters above
}

func (p *phaseStats) record(outcome int, lat, svc time.Duration, n int64) {
	p.mu.Lock()
	p.requests++
	p.bytes += n
	switch outcome {
	case outcomeOK:
		p.ok++
		p.latSum += lat
		p.latMax = max(p.latMax, lat)
	case outcomeShed:
		p.shed++
	case outcomeTimeout:
		p.timeout++
	default:
		p.errors++
	}
	p.mu.Unlock()
	if outcome == outcomeOK {
		p.lat.Observe(int64(lat))
		p.svc.Observe(int64(svc))
	}
}

const (
	outcomeOK = iota
	outcomeShed
	outcomeTimeout
	outcomeError
)

func (p *phaseStats) report(name string, wall time.Duration) PhaseReport {
	p.mu.Lock()
	defer p.mu.Unlock()
	quantile := func(h *perf.Histogram, q float64) float64 { return ms(time.Duration(h.Quantile(q))) }
	r := PhaseReport{
		Phase:    name,
		Requests: p.requests,
		OK:       p.ok,
		Shed:     p.shed,
		Timeout:  p.timeout,
		Errors:   p.errors,
		Bytes:    p.bytes,
		P50Ms:    quantile(&p.lat, 0.50),
		P95Ms:    quantile(&p.lat, 0.95),
		P99Ms:    quantile(&p.lat, 0.99),
		P999Ms:   quantile(&p.lat, 0.999),
		MaxMs:    ms(p.latMax),

		ServiceP50Ms: quantile(&p.svc, 0.50),
		ServiceP99Ms: quantile(&p.svc, 0.99),
	}
	if p.ok > 0 {
		r.MeanMs = ms(p.latSum / time.Duration(p.ok))
	}
	if p.requests > 0 {
		r.ErrorRate = float64(p.timeout+p.errors) / float64(p.requests)
		r.ShedRate = float64(p.shed) / float64(p.requests)
	}
	if wall > 0 {
		r.AchievedRPS = float64(p.requests) / wall.Seconds()
	}
	return r
}

func ms(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// DefaultClient returns an http.Client suited to open-loop load: a wide
// idle-connection pool so concurrency spikes do not serialize on
// connection setup, and no client-level timeout (deadlines are per
// request, from Config.Deadline).
func DefaultClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConns = 256
	t.MaxIdleConnsPerHost = 256
	return &http.Client{Transport: t}
}

// Run executes the configured load against the target and blocks until
// every dispatched request has completed (or ctx is cancelled, which
// cancels in-flight requests too).
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if len(cfg.Objects) == 0 {
		return nil, fmt.Errorf("loadgen: no objects")
	}
	if cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: duration must be positive, got %v", cfg.Duration)
	}
	sched, err := NewSchedule(cfg.Objects, cfg.RPS, cfg.ZipfS, cfg.Ranges, cfg.Seed)
	if err != nil {
		return nil, err
	}
	client := cfg.Client
	if client == nil {
		client = DefaultClient()
	}
	base := strings.TrimRight(cfg.BaseURL, "/")

	var phases [3]phaseStats
	var overall phaseStats
	var slow slowTracker
	dur := cfg.Duration.Seconds()
	phaseLen := dur / 3

	start := time.Now()
	timer := time.NewTimer(0)
	defer timer.Stop()
	if !timer.Stop() {
		<-timer.C
	}
	var wg sync.WaitGroup
dispatch:
	for {
		req := sched.Next()
		if req.At >= dur {
			break
		}
		// Open-loop pacing: wait for the scheduled instant, then fire
		// regardless of how many requests are still in flight.
		timer.Reset(time.Until(start.Add(time.Duration(req.At * float64(time.Second)))))
		select {
		case <-timer.C:
		case <-ctx.Done():
			break dispatch
		}
		phase := int(req.At / phaseLen)
		if phase > 2 {
			phase = 2
		}
		intended := start.Add(time.Duration(req.At * float64(time.Second)))
		one := func(req Request, phase int, intended time.Time) {
			sent := time.Now()
			outcome, n, id := issue(ctx, client, base, cfg.Objects[req.Obj], req, cfg.Deadline)
			done := time.Now()
			// The headline latency clock starts at the intended arrival,
			// not the actual send: dispatch lag is server-visible
			// queueing from the workload's point of view and must be
			// charged. The service clock starts at the send.
			lat := done.Sub(intended)
			svc := done.Sub(sent)
			phases[phase].record(outcome, lat, svc, n)
			overall.record(outcome, lat, svc, n)
			sr := SlowRequest{
				ID:        id,
				Object:    cfg.Objects[req.Obj].Name,
				Phase:     PhaseNames[phase],
				Outcome:   outcomeName(outcome),
				LatencyMs: ms(lat),
				ServiceMs: ms(svc),
			}
			if req.Len >= 0 {
				sr.Range = fmt.Sprintf("bytes=%d-%d", req.Off, req.Off+req.Len-1)
			}
			slow.add(sr)
		}
		if cfg.Closed {
			one(req, phase, intended)
			continue
		}
		wg.Add(1)
		go func(req Request, phase int, intended time.Time) {
			defer wg.Done()
			one(req, phase, intended)
		}(req, phase, intended)
	}
	wg.Wait()
	wall := time.Since(start)

	rep := &Report{
		Target:   cfg.BaseURL,
		RPS:      cfg.RPS,
		Duration: dur,
		ZipfS:    cfg.ZipfS,
		Objects:  len(cfg.Objects),
		Seed:     cfg.Seed,
		Overall:  overall.report("overall", wall),
		Slowest:  slow.snapshot(),
	}
	for i := range phases {
		w := time.Duration(phaseLen * float64(time.Second))
		if i == 2 && wall < cfg.Duration {
			w = wall - 2*w
		}
		rep.Phases = append(rep.Phases, phases[i].report(PhaseNames[i], w))
	}
	return rep, ctx.Err()
}

// issue sends one scheduled request and classifies the outcome,
// returning the body byte count and the server-assigned request id
// (X-Request-Id; "" before a response arrives or with tracing off).
func issue(ctx context.Context, client *http.Client, base string, obj Object, req Request, deadline time.Duration) (int, int64, string) {
	if deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/"+obj.Name, nil)
	if err != nil {
		return outcomeError, 0, ""
	}
	wantStatus := http.StatusOK
	wantLen := obj.Size
	if req.Len >= 0 {
		hr.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", req.Off, req.Off+req.Len-1))
		wantStatus = http.StatusPartialContent
		wantLen = req.Len
	}
	resp, err := client.Do(hr)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return outcomeTimeout, 0, ""
		}
		return outcomeError, 0, ""
	}
	defer resp.Body.Close()
	id := resp.Header.Get("X-Request-Id")
	n, err := io.Copy(io.Discard, resp.Body)
	switch {
	case resp.StatusCode == http.StatusServiceUnavailable:
		return outcomeShed, n, id
	case err != nil:
		if errors.Is(err, context.DeadlineExceeded) {
			return outcomeTimeout, n, id
		}
		return outcomeError, n, id
	case resp.StatusCode != wantStatus || n != wantLen:
		return outcomeError, n, id
	}
	return outcomeOK, n, id
}

// Text renders the report for humans, one aligned row per phase.
func (r *Report) Text() string {
	var b strings.Builder
	fmt.Fprintf(&b, "target %s  rps %.0f  duration %.0fs  zipf %.2f  objects %d  seed %d\n",
		r.Target, r.RPS, r.Duration, r.ZipfS, r.Objects, r.Seed)
	fmt.Fprintf(&b, "%-8s %8s %6s %6s %6s %6s %9s %9s %9s %9s %9s %8s\n",
		"phase", "requests", "ok", "shed", "tmo", "err", "p50ms", "p95ms", "p99ms", "p999ms", "maxms", "rps")
	rows := append([]PhaseReport{}, r.Phases...)
	rows = append(rows, r.Overall)
	for _, p := range rows {
		fmt.Fprintf(&b, "%-8s %8d %6d %6d %6d %6d %9.2f %9.2f %9.2f %9.2f %9.2f %8.1f\n",
			p.Phase, p.Requests, p.OK, p.Shed, p.Timeout, p.Errors,
			p.P50Ms, p.P95Ms, p.P99Ms, p.P999Ms, p.MaxMs, p.AchievedRPS)
	}
	fmt.Fprintf(&b, "error_rate %.4f  shed_rate %.4f  bytes %d\n",
		r.Overall.ErrorRate, r.Overall.ShedRate, r.Overall.Bytes)
	if len(r.Slowest) > 0 {
		fmt.Fprintf(&b, "slowest requests (open-loop):\n")
		fmt.Fprintf(&b, "  %-24s %-8s %-8s %10s %10s  %s\n",
			"id", "phase", "outcome", "latms", "svcms", "object")
		for _, s := range r.Slowest {
			id := s.ID
			if id == "" {
				id = "-"
			}
			obj := s.Object
			if s.Range != "" {
				obj += " " + s.Range
			}
			fmt.Fprintf(&b, "  %-24s %-8s %-8s %10.2f %10.2f  %s\n",
				id, s.Phase, s.Outcome, s.LatencyMs, s.ServiceMs, obj)
			if len(s.StageUs) > 0 {
				keys := make([]string, 0, len(s.StageUs))
				for k := range s.StageUs {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				b.WriteString("    stages:")
				for _, k := range keys {
					fmt.Fprintf(&b, " %s=%dus", strings.TrimSuffix(k, "_us"), s.StageUs[k])
				}
				b.WriteString("\n")
			}
		}
	}
	return b.String()
}
