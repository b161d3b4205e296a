package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func tinyConfig(t *testing.T, workload string, trace int) runConfig {
	return runConfig{Workload: workload, Seed: 1, Seconds: 0.3, TraceSeconds: 0.3, Trace: trace, Tiny: true, WorkDir: t.TempDir()}
}

// Every metric BENCHMARK.json names comes out of every workload exactly once
// (metricSet panics on a second emission), finite, under a well-formed name;
// no op fails; and the span file the traced pass leaves is a forest whose
// children lie inside their parents.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	want := map[string]bool{}
	for _, d := range allMetrics() {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is malformed", d.Name)
		}
		if want[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		want[d.Name] = true
	}
	for _, def := range workloadDefs {
		t.Run(def.Name, func(t *testing.T) {
			t.Parallel()
			cfg := tinyConfig(t, def.Name, -1)
			res, err := runWorkload(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%d of %d ops failed: %s", res.Failed, res.Attempted, res.FirstErr)
			}
			for name := range want {
				if v, ok := res.Metrics[name]; !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s: value %v, emitted %v", name, v, ok)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
			}
			for _, d := range endToEnd {
				if res.Metrics[d.Name] <= 0 {
					t.Errorf("end-to-end metric %s reads %v", d.Name, res.Metrics[d.Name])
				}
			}
			for _, trace := range []int{0, 1} {
				defs := [][]metricDef{endToEnd, perLayer}[trace]
				if line := lineFor(res, trace); len(line.Metrics) != len(defs) {
					t.Errorf("trace %d: result line carries %d metrics, want the %d declared", trace, len(line.Metrics), len(defs))
				}
			}
			checkSpanFile(t, filepath.Join(cfg.WorkDir, def.Name+".trace.json"))
		})
	}
}

func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var file struct{ Spans []span }
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(file.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	children := 0
	for i, s := range file.Spans {
		if s.ID != i || s.EndNs < s.StartNs {
			t.Fatalf("span %d: id %d, %d..%d", i, s.ID, s.StartNs, s.EndNs)
		}
		if s.Parent < 0 {
			continue
		}
		children++
		if p := file.Spans[s.Parent]; s.Parent >= i || s.StartNs < p.StartNs || s.EndNs > p.EndNs || s.Op != p.Op {
			t.Errorf("span %d %q (%d..%d, op %d) is not inside its parent %q (%d..%d, op %d)",
				i, s.Name, s.StartNs, s.EndNs, s.Op, p.Name, p.StartNs, p.EndNs, p.Op)
		}
	}
	if children == 0 {
		t.Errorf("%s: no span has a parent", path)
	}
}

// BENCHMARK.json at the root is the rendering of this package's tables.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var onDisk benchmarkManifest
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&onDisk); err != nil {
		t.Fatal(err)
	}
	if want := manifest(); !reflect.DeepEqual(onDisk, want) {
		t.Errorf("BENCHMARK.json differs from `bash benchmark/run.sh manifest`")
	}
}

// The same seed draws the same request schedule and the same inputs, so
// everything that is a count or a ratio of counts repeats exactly.
func TestSameSeedSameInputs(t *testing.T) {
	a := serveSchedule(7, 512, 24, 4<<20)
	if b := serveSchedule(7, 512, 24, 4<<20); !reflect.DeepEqual(a, b) {
		t.Error("seed 7 drew two different schedules")
	}
	if c := serveSchedule(8, 512, 24, 4<<20); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 drew the same schedule")
	}
	for _, rq := range a {
		if rq.Off < 0 || rq.Off+rq.Len > 4<<20 || rq.Obj < 0 || rq.Obj >= 24 {
			t.Fatalf("request %+v leaves its object", rq)
		}
	}

	run := func() workloadResult {
		res, err := runWorkload(context.Background(), tinyConfig(t, "oneshot-bit", -1))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for _, name := range []string{"ratio", "lz77.match_share", "lz77.avg_match_len", "lz77.seqs_per_KB", "kernels.sim_bit_de_GBps"} {
		if r1.Metrics[name] != r2.Metrics[name] || r1.Metrics[name] == 0 {
			t.Errorf("%s: %v then %v", name, r1.Metrics[name], r2.Metrics[name])
		}
	}
}

// skewedServe answers Check as if every request had asked for bytes one page
// further on. Requests for a whole object (tiny objects are shorter than the
// longest range) have nowhere to move to and still pass.
type skewedServe struct{ *serveWorkload }

func (s skewedServe) Check(_ context.Context, i int) error {
	rq := s.sched[i%len(s.sched)]
	rq.Off = (rq.Off + 4096) % (int64(s.sz.NativeSize) - rq.Len + 1)
	return s.checkAgainst(rq)
}

// The checker bites: a container with one payload byte flipped, and a
// served body compared against the wrong offset, both show up as failed ops.
func TestCheckerBites(t *testing.T) {
	ctx := context.Background()
	t.Run("flipped payload byte", func(t *testing.T) {
		w, err := newWorkload("oneshot-bit", 1, tinySizes, t.TempDir(), func() {})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		comp := w.(*decodeWorkload).objs[0].Comp
		comp[len(comp)/2] ^= 0x10
		ph, _ := runPhase(ctx, w, 0, 50*time.Millisecond, func() {})
		if ph.Failed == 0 || ph.Failed == ph.Attempted {
			t.Errorf("%d of %d ops failed; want the ops on the damaged object and only those", ph.Failed, ph.Attempted)
		}
	})
	t.Run("body checked against the wrong offset", func(t *testing.T) {
		w, err := newWorkload("serve-hot", 1, tinySizes, t.TempDir(), func() {})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if _, err := w.Setup(ctx); err != nil {
			t.Fatal(err)
		}
		if ph, _ := runPhase(ctx, w, 0, 50*time.Millisecond, func() {}); ph.Failed != 0 {
			t.Fatalf("unskewed: %d of %d ops failed: %v", ph.Failed, ph.Attempted, ph.FirstErr)
		}
		ph, _ := runPhase(ctx, skewedServe{w.(*serveWorkload)}, 0, 50*time.Millisecond, func() {})
		if 2*ph.Failed < ph.Attempted || ph.Attempted == 0 {
			t.Errorf("skewed: %d of %d ops failed; want every op on a partial range", ph.Failed, ph.Attempted)
		}
	})
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Name: "op", StartNs: 0, EndNs: 100},
		{ID: 1, Parent: 0, Name: "parse", StartNs: 10, EndNs: 30},
		{ID: 2, Parent: 0, Name: "decode", StartNs: 30, EndNs: 90},
		{ID: 3, Parent: 2, Name: "copy", StartNs: 40, EndNs: 60},
	}
	want := map[string]float64{"op": 20e-9, "parse": 20e-9, "decode": 40e-9, "copy": 20e-9}
	for name, got := range tr.selfSeconds() {
		if math.Abs(got-want[name]) > 1e-15 {
			t.Errorf("self time of %s: %g, want %g", name, got, want[name])
		}
	}
}

func TestJudge(t *testing.T) {
	thr := metricDef{Name: "throughput_MBps", Better: "higher", Bound: 0.10}
	p50 := metricDef{Name: "op_p50_ms", Better: "lower", Bound: 0.10}
	for _, tc := range []struct {
		name     string
		d        metricDef
		old, new []float64
		want     string
	}{
		{"inside the bound", thr, []float64{100}, []float64{95}, "unchanged"},
		{"throughput fell", thr, []float64{100}, []float64{85}, "regressed"},
		{"throughput rose", thr, []float64{100}, []float64{115}, "improved"},
		{"latency rose", p50, []float64{10}, []float64{11.5}, "regressed"},
		{"latency fell", p50, []float64{10}, []float64{8}, "improved"},
		{"wide and overlapping", thr, []float64{100, 80, 120}, []float64{85, 110, 70}, "unresolved"},
		{"wide but every new run better", thr, []float64{100, 80, 90}, []float64{130, 125, 160}, "improved"},
		{"tight runs, small gap", thr, []float64{100, 101, 99}, []float64{97, 98, 96}, "unchanged"},
		{"any failure regresses", failShare, []float64{0}, []float64{0.001}, "regressed"},
		{"no failures", failShare, []float64{0}, []float64{0}, "unchanged"},
	} {
		if got := judge(tc.d, "w", tc.old, tc.new).Verdict; got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareRefusesUnlikeReports(t *testing.T) {
	mk := func() *report {
		metrics := map[string]float64{}
		for _, d := range gated() {
			metrics[d.Name] = 1
		}
		return &report{Seed: 1, Seconds: 12, TraceSeconds: 8, Workloads: []string{"w"},
			Sets: [][]workloadResult{{{Name: "w", Metrics: metrics}}}}
	}
	if rows, err := compareReports(mk(), mk()); err != nil || len(rows) != len(gated()) {
		t.Fatalf("like reports: %d rows, %v", len(rows), err)
	}
	for name, mutate := range map[string]func(*report){
		"seed":      func(r *report) { r.Seed = 2 },
		"duration":  func(r *report) { r.Seconds = 20 },
		"workloads": func(r *report) { r.Workloads = []string{"w", "x"} },
		"noisy":     func(r *report) { r.Sets[0][0].Noisy = true },
	} {
		other := mk()
		mutate(other)
		if _, err := compareReports(mk(), other); err == nil {
			t.Errorf("reports differing in %s were compared", name)
		}
	}
}
