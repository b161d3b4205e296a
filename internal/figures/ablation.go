package figures

import (
	"fmt"

	"gompresso/internal/core"
	"gompresso/internal/format"
	"gompresso/internal/kernels"
	"gompresso/internal/lz77"
)

// Ablations for the design choices DESIGN.md calls out. The paper fixes
// these parameters after internal experiments; the tables below regenerate
// the trade-offs.

// StalenessRow is one point of the minimal-staleness sweep (§IV-B: "by
// testing different values ranging from 64–8K ... we determined that 1K
// results in the lowest compression ratio degradation").
type StalenessRow struct {
	Staleness    int
	RatioDE      float64
	RatioNoDE    float64
	RatioLossPct float64
}

// AblationStaleness sweeps the single-entry hash replacement horizon on the
// Wikipedia corpus.
func AblationStaleness(cfg Config) ([]StalenessRow, error) {
	cfg = cfg.withDefaults()
	ds := Datasets(cfg)[0]
	var rows []StalenessRow
	for _, st := range []int{64, 256, 1024, 4096, 8192} {
		opts := lz77.Options{Staleness: st, Window: 1<<16 - 1}
		tsOff, err := lz77.Parse(ds.Data, opts)
		if err != nil {
			return nil, err
		}
		opts.DE = lz77.DEStrict
		tsDE, err := lz77.Parse(ds.Data, opts)
		if err != nil {
			return nil, err
		}
		rOff := float64(len(ds.Data)) / float64(tsOff.CompressedSizeByte())
		rDE := float64(len(ds.Data)) / float64(tsDE.CompressedSizeByte())
		rows = append(rows, StalenessRow{
			Staleness: st, RatioDE: rDE, RatioNoDE: rOff,
			RatioLossPct: 100 * (1 - rDE/rOff),
		})
	}
	return rows, nil
}

// RenderAblationStaleness formats the sweep.
func RenderAblationStaleness(rows []StalenessRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.Staleness),
			fmt.Sprintf("%.3f", r.RatioNoDE),
			fmt.Sprintf("%.3f", r.RatioDE),
			fmt.Sprintf("%.1f%%", r.RatioLossPct),
		})
	}
	return "Ablation — minimal staleness (paper §IV-B picks 1K)\n" +
		table([]string{"staleness", "ratio w/o DE", "ratio w/ DE", "DE ratio loss"}, cells)
}

// DEModeRow compares the three parse rules end to end.
type DEModeRow struct {
	Mode      lz77.DEMode
	Ratio     float64
	DevGBps   float64 // device decompression, best usable strategy
	Strategy  kernels.Strategy
	AvgRounds float64
}

// AblationDEMode compares DEOff (MRR decompression) against DEStrict and
// DELit (single-round DE decompression) on the Wikipedia corpus, Byte
// variant: the ratio/speed frontier behind paper §IV.
func AblationDEMode(cfg Config) ([]DEModeRow, error) {
	cfg = cfg.withDefaults()
	ds := Datasets(cfg)[0]
	var rows []DEModeRow
	for _, mode := range []lz77.DEMode{lz77.DEOff, lz77.DEStrict, lz77.DELit} {
		comp, cs, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantByte, DE: mode, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		strat := kernels.DE
		if mode == lz77.DEOff {
			strat = kernels.MRR
		}
		st, gbps, err := cfg.simulate(comp, strat, kernels.PCIeNone)
		if err != nil {
			return nil, err
		}
		rows = append(rows, DEModeRow{
			Mode: mode, Ratio: cs.Ratio,
			DevGBps: gbps, Strategy: strat,
			AvgRounds: st.Rounds.AvgRounds(),
		})
	}
	return rows, nil
}

// RenderAblationDEMode formats the comparison.
func RenderAblationDEMode(rows []DEModeRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Mode.String(), fmt.Sprintf("%.3f", r.Ratio),
			r.Strategy.String(), fmt.Sprintf("%.2f", r.DevGBps),
			fmt.Sprintf("%.2f", r.AvgRounds),
		})
	}
	return "Ablation — DE parse rules (off→MRR; strict/strict+lit→single-round DE)\n" +
		table([]string{"parse", "ratio", "strategy", "GB/s", "avg rounds"}, cells)
}

// SubBlockRow is one point of the sequences-per-sub-block sweep (paper §III:
// "more sub-blocks per block increases parallelism and hence performance,
// but diminishes sub-block size and hence compression ratio").
type SubBlockRow struct {
	SeqsPerSub int
	Ratio      float64
	DevGBps    float64
}

// AblationSubBlocks sweeps the sub-block granularity for Gompresso/Bit.
func AblationSubBlocks(cfg Config) ([]SubBlockRow, error) {
	cfg = cfg.withDefaults()
	ds := Datasets(cfg)[0]
	var rows []SubBlockRow
	for _, n := range []int{4, 8, 16, 32, 64} {
		comp, cs, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantBit, DE: lz77.DEStrict,
			SeqsPerSub: n, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		_, gbps, err := cfg.simulate(comp, kernels.DE, kernels.PCIeNone)
		if err != nil {
			return nil, err
		}
		rows = append(rows, SubBlockRow{SeqsPerSub: n, Ratio: cs.Ratio, DevGBps: gbps})
	}
	return rows, nil
}

// RenderAblationSubBlocks formats the sweep.
func RenderAblationSubBlocks(rows []SubBlockRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.SeqsPerSub),
			fmt.Sprintf("%.3f", r.Ratio),
			fmt.Sprintf("%.2f", r.DevGBps),
		})
	}
	return "Ablation — sequences per sub-block (paper picks 16)\n" +
		table([]string{"seqs/sub-block", "ratio", "GB/s"}, cells)
}

// CWLRow is one point of the codeword-length-limit sweep (paper §V-C:
// CWL = 10 fits the LUTs in on-chip memory at ≈9 % ratio cost).
type CWLRow struct {
	CWL        int
	Ratio      float64
	DevGBps    float64
	WarpsPerSM int
}

// AblationCWL sweeps the Huffman length limit; larger tables cost occupancy.
func AblationCWL(cfg Config) ([]CWLRow, error) {
	cfg = cfg.withDefaults()
	ds := Datasets(cfg)[0]
	var rows []CWLRow
	for _, cwl := range []int{8, 9, 10, 11, 12} {
		comp, cs, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantBit, DE: lz77.DEStrict,
			CWL: cwl, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, err
		}
		st, gbps, err := cfg.simulate(comp, kernels.DE, kernels.PCIeNone)
		if err != nil {
			return nil, err
		}
		occ := 0
		if st.DecodeLaunch != nil {
			occ = st.DecodeLaunch.OccupantWarpsPerSM
		}
		rows = append(rows, CWLRow{
			CWL: cwl, Ratio: cs.Ratio,
			DevGBps: gbps, WarpsPerSM: occ,
		})
	}
	return rows, nil
}

// RenderAblationCWL formats the sweep.
func RenderAblationCWL(rows []CWLRow) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.CWL),
			fmt.Sprintf("%.3f", r.Ratio),
			fmt.Sprintf("%.2f", r.DevGBps),
			fmt.Sprintf("%d", r.WarpsPerSM),
		})
	}
	return "Ablation — Huffman codeword length limit (paper picks CWL=10)\n" +
		table([]string{"CWL", "ratio", "GB/s", "decode warps/SM"}, cells)
}
