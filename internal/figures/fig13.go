package figures

import (
	"fmt"

	"gompresso/internal/core"
	"gompresso/internal/format"
	"gompresso/internal/kernels"
	"gompresso/internal/lz77"
)

// Fig13Row is one point of paper Fig. 13: decompression speed vs compression
// ratio for Gompresso and the parallel CPU libraries.
type Fig13Row struct {
	Dataset string
	System  string
	GBps    float64
	Ratio   float64
}

// gompressoPoints produces the Gompresso series of Fig. 13: Bit with
// transfers, and Byte at the three transfer accountings.
func gompressoPoints(cfg Config, ds Dataset) ([]Fig13Row, error) {
	var rows []Fig13Row
	bit, bitStats, err := core.Compress(ds.Data, core.Options{
		Variant: format.VariantBit, DE: lz77.DEStrict, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	byteComp, byteStats, err := core.Compress(ds.Data, core.Options{
		Variant: format.VariantByte, DE: lz77.DEStrict, Workers: cfg.Workers,
	})
	if err != nil {
		return nil, err
	}
	series := []struct {
		name  string
		comp  []byte
		ratio float64
		pcie  kernels.PCIeMode
	}{
		{"Gomp/Bit (In/Out)", bit, bitStats.Ratio, kernels.PCIeInOut},
		{"Gomp/Byte (In/Out)", byteComp, byteStats.Ratio, kernels.PCIeInOut},
		{"Gomp/Byte (In)", byteComp, byteStats.Ratio, kernels.PCIeIn},
		{"Gomp/Byte (No PCIe)", byteComp, byteStats.Ratio, kernels.PCIeNone},
	}
	for _, s := range series {
		_, gbps, err := cfg.simulate(s.comp, kernels.DE, s.pcie)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.name, err)
		}
		rows = append(rows, Fig13Row{Dataset: ds.Name, System: s.name, GBps: gbps, Ratio: s.ratio})
	}
	return rows, nil
}

// Fig13 produces both datasets' speed/ratio scatter: four CPU libraries
// (calibrated or measured per cfg.Mode) and the Gompresso series.
func Fig13(cfg Config) ([]Fig13Row, error) {
	cfg = cfg.withDefaults()
	var rows []Fig13Row
	for _, ds := range Datasets(cfg) {
		for _, codec := range []string{"Snappy", "LZ4", "Zstd", "zlib"} {
			pt, err := cpuPoint(cfg, ds, codec)
			if err != nil {
				return nil, fmt.Errorf("fig13 %s/%s: %w", ds.Name, codec, err)
			}
			rows = append(rows, Fig13Row{
				Dataset: ds.Name, System: codec + " (CPU)",
				GBps: pt.GBps, Ratio: pt.Ratio,
			})
		}
		gp, err := gompressoPoints(cfg, ds)
		if err != nil {
			return nil, fmt.Errorf("fig13 %s: %w", ds.Name, err)
		}
		rows = append(rows, gp...)
	}
	return rows, nil
}

// RenderFig13 formats the rows.
func RenderFig13(rows []Fig13Row) string {
	var cells [][]string
	for _, r := range rows {
		cells = append(cells, []string{
			r.Dataset, r.System,
			fmt.Sprintf("%.2f", r.GBps),
			fmt.Sprintf("%.2f", r.Ratio),
		})
	}
	return "Fig 13 — decompression speed vs compression ratio, GPU vs multicore CPU\n" +
		table([]string{"dataset", "system", "GB/s", "ratio"}, cells)
}
