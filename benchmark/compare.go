package main

import (
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
)

// gated are the metrics compare and aa judge: the end-to-end ones by their
// relative bounds, and fail_share at 0 absolute.
func gated() []metricDef { return append(append([]metricDef(nil), endToEnd...), failShare) }

// verdictRow is one end-to-end metric of one workload, old against new.
type verdictRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Old      float64 `json:"old_median"`
	New      float64 `json:"new_median"`
	// Worse is how far New is on the wrong side of Old, as a share of Old
	// (absolute for fail_share); negative when New is better.
	Worse   float64 `json:"worse"`
	Spread  float64 `json:"spread"` // widest (max-min)/median of either side's runs
	Bound   float64 `json:"bound"`
	Verdict string  `json:"verdict"`
}

// judge compares one metric's runs. A gap inside the bound is unchanged;
// outside it, improved or regressed; and when either side's own runs spread
// wider than the bound while the two sides' ranges overlap, the runs cannot
// tell, which is unresolved, not unchanged.
func judge(d metricDef, workload string, old, cur []float64) verdictRow {
	row := verdictRow{Workload: workload, Metric: d.Name, Unit: d.Unit, Old: median(old), New: median(cur), Bound: d.Bound}
	row.Worse = row.New - row.Old
	if d.Better == "higher" {
		row.Worse = -row.Worse
	}
	if d.Name != failShare.Name {
		row.Worse = ratioOf(row.Worse, row.Old)
		row.Spread = math.Max(spread(old), spread(cur))
	}
	overlap := slices.Min(old) <= slices.Max(cur) && slices.Min(cur) <= slices.Max(old)
	switch {
	case row.Spread > row.Bound && overlap && (len(old) > 1 || len(cur) > 1):
		row.Verdict = "unresolved"
	case row.Worse > row.Bound:
		row.Verdict = "regressed"
	case row.Worse < -row.Bound:
		row.Verdict = "improved"
	default:
		row.Verdict = "unchanged"
	}
	return row
}

// spread is the run-to-run range as a share of the median.
func spread(xs []float64) float64 {
	return ratioOf(slices.Max(xs)-slices.Min(xs), median(xs))
}

// alike refuses pairs of reports whose numbers do not mean the same thing.
func alike(old, cur *report) error {
	var why []string
	if old.Seed != cur.Seed {
		why = append(why, fmt.Sprintf("seeds differ (%d, %d)", old.Seed, cur.Seed))
	}
	if old.Seconds != cur.Seconds || old.TraceSeconds != cur.TraceSeconds || old.Tiny != cur.Tiny {
		why = append(why, fmt.Sprintf("durations differ (%gs+%gs tiny=%v, %gs+%gs tiny=%v)",
			old.Seconds, old.TraceSeconds, old.Tiny, cur.Seconds, cur.TraceSeconds, cur.Tiny))
	}
	if !slices.Equal(old.Workloads, cur.Workloads) {
		why = append(why, fmt.Sprintf("workload lists differ (%v, %v)", old.Workloads, cur.Workloads))
	}
	if n := append(old.noisy(), cur.noisy()...); len(n) > 0 {
		why = append(why, "marked noisy: "+strings.Join(n, ", "))
	}
	if len(why) > 0 {
		return fmt.Errorf("refusing to compare: %s", strings.Join(why, "; "))
	}
	return nil
}

// compareReports judges every end-to-end metric on every workload of two
// reports that may be compared.
func compareReports(old, cur *report) ([]verdictRow, error) {
	if err := alike(old, cur); err != nil {
		return nil, err
	}
	return verdicts(old, cur)
}

func verdicts(old, cur *report) ([]verdictRow, error) {
	var rows []verdictRow
	for _, w := range old.Workloads {
		for _, d := range gated() {
			o, n := old.values(w, d.Name), cur.values(w, d.Name)
			if len(o) == 0 || len(n) == 0 {
				return nil, fmt.Errorf("%s: %s is missing from one side", w, d.Name)
			}
			rows = append(rows, judge(d, w, o, n))
		}
	}
	return rows, nil
}

// printVerdicts writes one block per workload, one line per metric, every
// gap with the base it is a share of.
func printVerdicts(out io.Writer, rows []verdictRow) (regressed, unresolved int) {
	last := ""
	for _, r := range rows {
		if r.Workload != last {
			fmt.Fprintf(out, "== %s\n", r.Workload)
			last = r.Workload
		}
		gap := fmt.Sprintf("%+.2f%% of %.6g", 100*ratioOf(r.New-r.Old, r.Old), r.Old)
		if r.Metric == failShare.Name {
			gap = fmt.Sprintf("%+.6g absolute", r.New-r.Old)
		}
		fmt.Fprintf(out, "   %-16s %12.6g -> %-12.6g %-9s %-24s bound %.3g, spread %.3g  %s\n",
			r.Metric, r.Old, r.New, r.Unit, gap, r.Bound, r.Spread, r.Verdict)
		switch r.Verdict {
		case "regressed":
			regressed++
		case "unresolved":
			unresolved++
		}
	}
	return regressed, unresolved
}

// aaRows compares the two sets of one report with each other. Neither is
// the baseline, so a gap beyond the bound in either direction fails. Noisy
// sets are still tabulated: how far apart they landed is the finding.
func aaRows(r *report) ([]verdictRow, int, error) {
	if len(r.Sets) != 2 {
		return nil, 0, fmt.Errorf("aa needs exactly two sets, have %d", len(r.Sets))
	}
	a, b := *r, *r
	a.Sets, b.Sets = r.Sets[:1], r.Sets[1:]
	rows, err := verdicts(&a, &b)
	beyond := 0
	for i := range rows {
		if math.Abs(rows[i].Worse) > rows[i].Bound {
			rows[i].Verdict = "beyond bound"
			beyond++
		} else {
			rows[i].Verdict = "within bound"
		}
	}
	return rows, beyond, err
}
