// Command benchmark is the repository's benchmark: six closed-loop
// workloads, the end-to-end metrics a user of the codec or the daemon sees,
// and per-layer probes taken from outside the program that sum back to the
// whole. It is a module of its own, built against the gompresso module one
// directory up; run.sh builds it and passes its arguments on. See README.md
// in this directory.
//
//	bash benchmark/run.sh run [-seed N] [-workload W] [-o FILE]
//	bash benchmark/run.sh aa [-o FILE]
//	bash benchmark/run.sh compare OLD.json NEW.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	var err error
	switch os.Args[1] {
	case "run":
		err = cmdRun(ctx, os.Args[2:], 1)
	case "aa":
		err = cmdRun(ctx, os.Args[2:], 2)
	case "compare":
		err = cmdCompare(os.Args[2:])
	case "manifest":
		err = json.NewEncoder(os.Stdout).Encode(manifest())
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		stop()
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  benchmark run [-seed N] [-workload W] [-seconds S] [-trace 0|1] [-o FILE]
  benchmark aa [-seed N] [-seconds S] [-o FILE]
  benchmark compare OLD.json NEW.json
  benchmark manifest`)
	os.Exit(2)
}

// cmdRun is `run` (one set) and `aa` (two sets, compared with each other).
// With -workload it measures that workload in this process and ends its
// standard output with the result line; without, it runs every workload in
// a fresh child process of this binary, one after another, so allocator
// state and peak RSS are each workload's own.
func cmdRun(ctx context.Context, args []string, sets int) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	cfg := runConfig{}
	fs.StringVar(&cfg.Workload, "workload", "", "run only this workload, in this process")
	fs.Uint64Var(&cfg.Seed, "seed", 1, "seed every input and request schedule is drawn from")
	fs.Float64Var(&cfg.Seconds, "seconds", runSeconds, "timed phase in seconds (warm-up is a sixth of it)")
	fs.Float64Var(&cfg.TraceSeconds, "trace-seconds", 8, "budget of the traced pass in seconds")
	fs.IntVar(&cfg.Trace, "trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	fs.BoolVar(&cfg.Tiny, "tiny", false, "tiny inputs and phases: exercises the harness, measures nothing")
	fs.StringVar(&cfg.WorkDir, "dir", filepath.Join("benchmark", "out"), "directory for fixtures and span files")
	out := fs.String("o", "", "write the report (or, with -workload, the workload's result) here as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if cfg.Workload != "" {
		return runOne(ctx, cfg, *out)
	}

	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.Name
	}
	rep := newReport(cfg, names)
	failed := 0
	for set := 0; set < sets; set++ {
		var results []workloadResult
		for _, name := range names {
			res, err := runChild(ctx, cfg, name)
			if err != nil {
				return err
			}
			printResult(os.Stdout, res, cfg.Trace)
			failed += res.Failed
			results = append(results, res)
		}
		rep.Sets = append(rep.Sets, results)
	}
	noisy := rep.noisy()
	if len(noisy) > 0 {
		fmt.Printf("noisy (control drift above %.2f): %v\n", noisyDrift, noisy)
	}
	var aa struct {
		*report
		AA []verdictRow `json:"aa,omitempty"`
	}
	aa.report = rep
	beyond := 0
	if sets == 2 {
		var err error
		if aa.AA, beyond, err = aaRows(rep); err != nil {
			return err
		}
		fmt.Println("A/A: set 1 against set 2 of the same build")
		printVerdicts(os.Stdout, aa.AA)
	}
	if *out != "" {
		if err := writeJSON(*out, aa); err != nil {
			return err
		}
	}
	switch {
	case failed > 0:
		return fmt.Errorf("%d ops failed verification", failed)
	case beyond > 0:
		return fmt.Errorf("A/A: %d end-to-end gaps beyond their bounds", beyond)
	case sets == 2 && len(noisy) > 0:
		return fmt.Errorf("A/A: %d workload runs marked noisy", len(noisy))
	}
	return nil
}

// runOne measures one workload here and prints the result line last.
func runOne(ctx context.Context, cfg runConfig, out string) error {
	res, err := runWorkload(ctx, cfg)
	if err != nil {
		return err
	}
	printResult(os.Stdout, res, cfg.Trace)
	if out != "" {
		if err := writeJSON(out, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(lineFor(res, cfg.Trace))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if res.Failed > 0 {
		return fmt.Errorf("%s: %d of %d ops failed: %s", cfg.Workload, res.Failed, res.Attempted, res.FirstErr)
	}
	return nil
}

// runChild runs one workload in a fresh process of this binary, waits for
// it, and reads back the result it wrote.
func runChild(ctx context.Context, cfg runConfig, name string) (workloadResult, error) {
	var res workloadResult
	self, err := os.Executable()
	if err != nil {
		return res, err
	}
	resultFile := filepath.Join(cfg.WorkDir, name+".result.json")
	args := []string{"run", "-workload", name, "-o", resultFile, "-dir", cfg.WorkDir,
		"-seed", strconv.FormatUint(cfg.Seed, 10),
		"-seconds", strconv.FormatFloat(cfg.Seconds, 'g', -1, 64),
		"-trace-seconds", strconv.FormatFloat(cfg.TraceSeconds, 'g', -1, 64),
		"-trace", strconv.Itoa(cfg.Trace), "-tiny=" + strconv.FormatBool(cfg.Tiny)}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	data, err := os.ReadFile(resultFile)
	if err != nil {
		return res, fmt.Errorf("%s: no result (%v): %w", name, runErr, err)
	}
	if err := json.Unmarshal(data, &res); err != nil {
		return res, fmt.Errorf("%s: %w", name, err)
	}
	return res, os.Remove(resultFile)
}

func cmdCompare(args []string) error {
	if len(args) != 2 {
		usage()
	}
	old, err := readReport(args[0])
	if err != nil {
		return err
	}
	cur, err := readReport(args[1])
	if err != nil {
		return err
	}
	rows, err := compareReports(old, cur)
	if err != nil {
		return err
	}
	fmt.Printf("old %s (%d sets), new %s (%d sets), seed %d, %gs timed\n", args[0], len(old.Sets), args[1], len(cur.Sets), old.Seed, old.Seconds)
	regressed, unresolved := printVerdicts(os.Stdout, rows)
	fmt.Printf("%d regressed, %d unresolved of %d\n", regressed, unresolved, len(rows))
	if regressed > 0 {
		return fmt.Errorf("%d end-to-end metrics regressed beyond their bounds", regressed)
	}
	return nil
}

// runSeconds is the timed phase every comparison uses: the default of
// -seconds and BENCHMARK.json's run_seconds.
const runSeconds = 12

// benchmarkManifest is BENCHMARK.json.
type benchmarkManifest struct {
	Command    []string           `json:"command"`
	Paths      []string           `json:"paths"`
	RunSeconds int                `json:"run_seconds"`
	Workloads  []manifestWorkload `json:"workloads"`
	EndToEnd   []manifestMetric   `json:"end_to_end"`
	PerLayer   []manifestMetric   `json:"per_layer"`
}

type manifestWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// manifest renders the tables in metrics.go and workloads.go as
// BENCHMARK.json, so the file at the root and the code cannot drift apart
// unnoticed (a test compares them).
func manifest() benchmarkManifest {
	m := benchmarkManifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		m.Workloads = append(m.Workloads, manifestWorkload{w.Name, w.Why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range perLayer {
		m.PerLayer = append(m.PerLayer, manifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	return m
}
