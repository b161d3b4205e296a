package figures

import "fmt"

// Fig14Row is one point of paper Fig. 14: wall-socket energy to decompress
// the Wikipedia dataset (normalized to 1 GB) vs compression ratio.
type Fig14Row struct {
	System   string
	Ratio    float64
	JoulesGB float64
	Watts    float64
}

// Fig14 converts the Fig. 13 Wikipedia operating points into energy with
// the power model: CPU libraries at CPU-only system power (GPUs
// physically removed, §V-D), Gompresso at GPU system power.
func Fig14(cfg Config) ([]Fig14Row, error) {
	cfg = cfg.withDefaults()
	f13, err := Fig13(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Fig14Row
	for _, r := range f13 {
		if r.Dataset != "Wikipedia" || r.GBps <= 0 {
			continue
		}
		watts := gpuSystemWatts
		if len(r.System) > 5 && r.System[len(r.System)-5:] == "(CPU)" {
			watts = cpuSystemWatts
		}
		secondsPerGB := 1.0 / r.GBps // decimal GB as in GBps
		rows = append(rows, Fig14Row{
			System:   r.System,
			Ratio:    r.Ratio,
			JoulesGB: energy(watts, secondsPerGB),
			Watts:    watts,
		})
	}
	return rows, nil
}

// RenderFig14 formats the rows.
func RenderFig14(rows []Fig14Row) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.System,
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprintf("%.1f", r.JoulesGB),
			fmt.Sprintf("%.0f", r.Watts),
		})
	}
	return "Fig 14 — energy vs compression ratio, Wikipedia (J per GB at the wall socket)\n" +
		table([]string{"system", "ratio", "J/GB", "system W"}, cells)
}
