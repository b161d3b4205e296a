package figures

import (
	"fmt"

	"gompresso/internal/core"
	"gompresso/internal/format"
	"gompresso/internal/kernels"
	"gompresso/internal/lz77"
)

// Fig12Row is one block size of paper Fig. 12: Gompresso/Bit decompression
// speed (transfers included) and compression ratio.
type Fig12Row struct {
	BlockKB   int
	GBps      float64
	Ratio     float64
	Occupancy int // resident decode warps per SM (the figure's mechanism)
}

// Fig12 sweeps the data block size for Gompresso/Bit on the Wikipedia
// dataset with DE streams and In/Out transfers, the configuration of the
// paper's §V-C.
func Fig12(cfg Config) ([]Fig12Row, error) {
	cfg = cfg.withDefaults()
	ds := Datasets(cfg)[0] // Wikipedia
	var rows []Fig12Row
	for _, kb := range []int{32, 64, 128, 256} {
		comp, cs, err := core.Compress(ds.Data, core.Options{
			Variant: format.VariantBit, DE: lz77.DEStrict,
			BlockSize: kb << 10, Workers: cfg.Workers,
		})
		if err != nil {
			return nil, fmt.Errorf("fig12 %dKB: %w", kb, err)
		}
		st, gbps, err := cfg.simulate(comp, kernels.DE, kernels.PCIeInOut)
		if err != nil {
			return nil, fmt.Errorf("fig12 %dKB: %w", kb, err)
		}
		occ := 0
		if st.DecodeLaunch != nil {
			occ = st.DecodeLaunch.OccupantWarpsPerSM
		}
		rows = append(rows, Fig12Row{
			BlockKB:   kb,
			GBps:      gbps,
			Ratio:     cs.Ratio,
			Occupancy: occ,
		})
	}
	return rows, nil
}

// RenderFig12 formats the rows.
func RenderFig12(rows []Fig12Row) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			fmt.Sprintf("%d", r.BlockKB),
			fmt.Sprintf("%.2f", r.GBps),
			fmt.Sprintf("%.2f", r.Ratio),
			fmt.Sprintf("%d", r.Occupancy),
		})
	}
	return "Fig 12 — Gompresso/Bit speed (incl. PCIe) and ratio vs block size (Wikipedia)\n" +
		table([]string{"block KB", "GB/s", "ratio", "decode warps/SM"}, cells)
}
