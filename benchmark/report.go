package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// machine records where a report was measured; numbers from two machines
// are not to be compared.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
}

func thisMachine() machine {
	m := machine{CPU: "unknown", NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return m
}

// report is the file `run -o` and `aa -o` write and `compare` reads: what
// was run and how, and one result per workload per set. A set is one pass
// over the workload list; `aa` writes two.
type report struct {
	Machine      machine            `json:"machine"`
	Seed         uint64             `json:"seed"`
	Seconds      float64            `json:"seconds"`
	WarmupSecs   float64            `json:"warmup_seconds"`
	TraceSeconds float64            `json:"trace_seconds"`
	Tiny         bool               `json:"tiny"`
	Workloads    []string           `json:"workloads"`
	Sets         [][]workloadResult `json:"sets"`
}

func newReport(cfg runConfig, names []string) *report {
	return &report{Machine: thisMachine(), Seed: cfg.Seed, Seconds: cfg.Seconds, WarmupSecs: cfg.Seconds / 6,
		TraceSeconds: cfg.TraceSeconds, Tiny: cfg.Tiny, Workloads: names}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Sets) == 0 {
		return nil, fmt.Errorf("%s: no result sets", path)
	}
	return &r, nil
}

// values collects one metric of one workload across the report's sets.
func (r *report) values(workload, metric string) []float64 {
	var vs []float64
	for _, set := range r.Sets {
		for _, w := range set {
			if v, ok := w.Metrics[metric]; ok && w.Name == workload {
				vs = append(vs, v)
			}
		}
	}
	return vs
}

func (r *report) noisy() []string {
	var names []string
	for i, set := range r.Sets {
		for _, w := range set {
			if w.Noisy {
				names = append(names, fmt.Sprintf("%s (set %d)", w.Name, i+1))
			}
		}
	}
	return names
}

// printResult writes one workload's metrics by name, with units: the
// end-to-end ones first, then every per-layer one the mode measured.
func printResult(out io.Writer, res workloadResult, trace int) {
	flag := ""
	if res.Noisy {
		flag = fmt.Sprintf("  [noisy: control drift above %.2f, do not compare]", noisyDrift)
	}
	fmt.Fprintf(out, "== %s  ops attempted %d, failed %d%s\n", res.Name, res.Attempted, res.Failed, flag)
	if res.FirstErr != "" {
		fmt.Fprintf(out, "   first failure: %s\n", res.FirstErr)
	}
	show := func(defs []metricDef) {
		for _, d := range defs {
			if v, ok := res.Metrics[d.Name]; ok {
				fmt.Fprintf(out, "   %-36s %14.6g %s\n", d.Name, v, d.Unit)
			}
		}
	}
	show(defsFor(trace))
	if trace == 0 {
		show([]metricDef{opP95, failShare})
	}
}

// defsFor lists the metrics a trace mode calls for: the end-to-end ones
// with 0, the per-layer ones with 1, both otherwise.
func defsFor(trace int) []metricDef {
	var defs []metricDef
	if trace != 1 {
		defs = append(defs, endToEnd...)
	}
	if trace != 0 {
		defs = append(defs, perLayer...)
	}
	return defs
}

// resultLine is the last line of a single-workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// lineFor keeps the metrics the mode calls for.
func lineFor(res workloadResult, trace int) resultLine {
	line := resultLine{Correct: res.Failed == 0, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metricValue{}}
	for _, d := range defsFor(trace) {
		line.Metrics[d.Name] = metricValue{Value: res.Metrics[d.Name], Unit: d.Unit}
	}
	return line
}
