package figures

import (
	"fmt"

	"gompresso/internal/core"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
	"gompresso/internal/kernels"
	"gompresso/internal/lz77"
)

// Fig9aRow is one bar of paper Fig. 9a: LZ decompression speed of
// Gompresso/Byte under a back-reference resolution strategy, transfers
// excluded.
type Fig9aRow struct {
	Dataset   string
	Strategy  kernels.Strategy
	GBps      float64
	AvgRounds float64
}

// Fig9a measures SC/MRR on a normally-parsed stream and DE on a
// Dependency-Elimination stream, Byte variant, no PCIe (paper: "we place the
// compressed input and the decompressed output in device memory").
func Fig9a(cfg Config) ([]Fig9aRow, error) {
	cfg = cfg.withDefaults()
	var rows []Fig9aRow
	for _, ds := range Datasets(cfg) {
		normal, _, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantByte, DE: lz77.DEOff, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("fig9a %s: %w", ds.Name, err)
		}
		deStream, _, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantByte, DE: lz77.DEStrict, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("fig9a %s: %w", ds.Name, err)
		}
		for _, tc := range []struct {
			strat  kernels.Strategy
			stream []byte
		}{{kernels.SC, normal}, {kernels.MRR, normal}, {kernels.DE, deStream}} {
			st, gbps, err := cfg.simulate(tc.stream, tc.strat, kernels.PCIeNone)
			if err != nil {
				return nil, fmt.Errorf("fig9a %s/%v: %w", ds.Name, tc.strat, err)
			}
			row := Fig9aRow{
				Dataset:  ds.Name,
				Strategy: tc.strat,
				GBps:     gbps,
			}
			if st.Rounds != nil {
				row.AvgRounds = st.Rounds.AvgRounds()
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// RenderFig9a formats the rows.
func RenderFig9a(rows []Fig9aRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, r.Strategy.String(),
			fmt.Sprintf("%.2f", r.GBps),
			fmt.Sprintf("%.2f", r.AvgRounds),
		})
	}
	return "Fig 9a — Gompresso/Byte LZ decompression speed by strategy (no PCIe)\n" +
		table([]string{"dataset", "strategy", "GB/s", "avg rounds"}, cells)
}

// Fig9bRow is one point of paper Fig. 9b: average bytes resolved per MRR
// round.
type Fig9bRow struct {
	Dataset  string
	Round    int
	AvgBytes float64
	Groups   int64 // groups that executed this round
}

// Fig9b decompresses the normally-parsed Byte streams with MRR and reports
// per-round byte counts averaged over the groups reaching each round.
func Fig9b(cfg Config) ([]Fig9bRow, error) {
	cfg = cfg.withDefaults()
	var rows []Fig9bRow
	for _, ds := range Datasets(cfg) {
		comp, _, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantByte, DE: lz77.DEOff, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		st, _, err := cfg.simulate(comp, kernels.MRR, kernels.PCIeNone)
		if err != nil {
			return nil, err
		}
		rs := st.Rounds
		// Groups reaching round r = sum of histogram entries ≥ r.
		for r := 0; r < len(rs.BytesPerRound); r++ {
			var reaching int64
			for h := r; h < len(rs.RoundsHist); h++ {
				reaching += rs.RoundsHist[h]
			}
			avg := 0.0
			if reaching > 0 {
				avg = float64(rs.BytesPerRound[r]) / float64(reaching)
			}
			rows = append(rows, Fig9bRow{Dataset: ds.Name, Round: r + 1, AvgBytes: avg, Groups: reaching})
		}
	}
	return rows, nil
}

// RenderFig9b formats the rows.
func RenderFig9b(rows []Fig9bRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, fmt.Sprintf("%d", r.Round),
			fmt.Sprintf("%.1f", r.AvgBytes),
			fmt.Sprintf("%d", r.Groups),
		})
	}
	return "Fig 9b — average bytes resolved per MRR round\n" +
		table([]string{"dataset", "round", "avg bytes", "groups"}, cells)
}

// Fig9cRow is one point of paper Fig. 9c: decompression time vs designed
// nesting depth on the artificial datasets.
type Fig9cRow struct {
	Families      int
	DesignedDepth int
	AvgRounds     float64
	TimeMs        float64 // simulated, for cfg.DataSize bytes
	TimeMsPerGB   float64 // scaled to the paper's 1 GB
}

// Fig9c generates Nesting datasets across family counts and times MRR
// decompression (Byte variant, no PCIe, NestingWindow).
func Fig9c(cfg Config) ([]Fig9cRow, error) {
	cfg = cfg.withDefaults()
	var rows []Fig9cRow
	for _, fams := range []int{32, 16, 8, 4, 2, 1} {
		data := datagen.Nesting(cfg.DataSize, fams, cfg.Seed)
		comp, _, err := core.Compress(data, core.Options{
			Variant: format.VariantByte, DE: lz77.DEOff,
			Window: datagen.NestingWindow, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		st, _, err := cfg.simulate(comp, kernels.MRR, kernels.PCIeNone)
		if err != nil {
			return nil, err
		}
		ms := st.SimSeconds * 1e3
		rows = append(rows, Fig9cRow{
			Families:      fams,
			DesignedDepth: datagen.NestingDepthFor(fams),
			AvgRounds:     st.Rounds.AvgRounds(),
			TimeMs:        ms,
			TimeMsPerGB:   ms * float64(1<<30) / float64(len(data)),
		})
	}
	return rows, nil
}

// RenderFig9c formats the rows.
func RenderFig9c(rows []Fig9cRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Families),
			fmt.Sprintf("%d", r.DesignedDepth),
			fmt.Sprintf("%.1f", r.AvgRounds),
			fmt.Sprintf("%.2f", r.TimeMs),
			fmt.Sprintf("%.1f", r.TimeMsPerGB),
		})
	}
	return "Fig 9c — MRR decompression time vs nesting depth (artificial data)\n" +
		table([]string{"families", "designed depth", "avg rounds", "time (ms)", "ms per GB"}, cells)
}
