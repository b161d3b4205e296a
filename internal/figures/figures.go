// Package figures regenerates every figure of the paper's evaluation
// (§V, Figs. 9–14) plus the quoted scalar results. Each Fig* function runs
// the corresponding experiment and returns typed rows; Render* helpers
// produce the text tables printed by cmd/figures and recorded in
// EXPERIMENTS.md.
//
// Two modes control the CPU side of Figs. 13/14:
//
//   - Calibrated (default): CPU libraries are placed at the operating
//     points read off the paper's figures (internal/perf), so the geometry
//     reproduces machine-independently; the GPU side always comes from the
//     simulator.
//   - Measured: the real Go baseline codecs run block-parallel on the host
//     and their wall-clock speeds are reported. Absolute values then depend
//     on the machine.
package figures

import (
	"fmt"
	"strings"
	"time"

	"gompresso/internal/baseline"
	"gompresso/internal/datagen"
	"gompresso/internal/gpu"
	"gompresso/internal/kernels"
	"gompresso/internal/perf"
)

// paperScale is the dataset size of the paper's evaluation (1 GB); device
// launches are tile-modeled to this size so occupancy matches the paper's
// regime even when the reproduction generates smaller corpora.
const paperScale = 1 << 30

// Mode selects the CPU-side methodology for Figs. 13/14.
type Mode int

const (
	// Calibrated places CPU libraries at paper-calibrated operating points.
	Calibrated Mode = iota
	// Measured times the real Go baseline codecs on the host.
	Measured
)

func (m Mode) String() string {
	if m == Measured {
		return "measured"
	}
	return "calibrated"
}

// Config parameterizes the experiments.
type Config struct {
	DataSize int    // bytes per synthetic dataset; 0 = 32 MiB
	Seed     uint64 // dataset seed; 0 = 1
	Mode     Mode
	Workers  int         // host workers for measured mode and compression
	Device   *gpu.Device // nil = simulated Tesla K40
}

func (c Config) withDefaults() Config {
	if c.DataSize == 0 {
		c.DataSize = 32 << 20
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Device == nil {
		c.Device = gpu.MustDevice(gpu.TeslaK40())
	}
	return c
}

// simulate decompresses comp on the configured device, tile-modeled to
// paperScale, and returns the modeled stats with the simulated end-to-end
// speed. c must have its defaults filled.
func (c Config) simulate(comp []byte, strat kernels.Strategy, pcie kernels.PCIeMode) (kernels.Stats, float64, error) {
	out, st, err := kernels.Decompress(comp, kernels.Config{
		Strategy: strat, Device: c.Device, PCIe: pcie, TileTo: paperScale,
	})
	return st, GBps(int64(len(out)), st.SimSeconds), err
}

// Dataset pairs a perf calibration id with generated bytes.
type Dataset struct {
	Name string
	ID   perf.Dataset
	Data []byte
}

// Datasets generates the paper's two evaluation corpora at the configured
// size.
func Datasets(cfg Config) []Dataset {
	cfg = cfg.withDefaults()
	return []Dataset{
		{Name: "Wikipedia", ID: perf.Wikipedia, Data: datagen.WikiXML(cfg.DataSize, cfg.Seed)},
		{Name: "Matrix", ID: perf.Matrix, Data: datagen.MatrixMarket(cfg.DataSize, cfg.Seed)},
	}
}

// GBps converts bytes and seconds to gigabytes per second (decimal GB, as
// the paper's axes use).
func GBps(bytes int64, seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return float64(bytes) / seconds / 1e9
}

// measureDecompress times fn (a decompression closure) best-of-three.
func measureDecompress(fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < 3; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		dt := time.Since(start).Seconds()
		if best == 0 || dt < best {
			best = dt
		}
	}
	return best, nil
}

// measuredCPUPoint compresses ds with the codec block-parallel and times
// parallel decompression on the host.
func measuredCPUPoint(c baseline.Codec, data []byte, workers int) (perf.OperatingPoint, error) {
	comp, err := baseline.CompressParallel(c, data, baseline.DefaultParallelBlockSize, workers)
	if err != nil {
		return perf.OperatingPoint{}, err
	}
	secs, err := measureDecompress(func() error {
		_, err := baseline.DecompressParallel(c, comp, workers)
		return err
	})
	if err != nil {
		return perf.OperatingPoint{}, err
	}
	return perf.OperatingPoint{
		GBps:  GBps(int64(len(data)), secs),
		Ratio: float64(len(data)) / float64(len(comp)),
	}, nil
}

// cpuPoint dispatches on the mode.
func cpuPoint(cfg Config, ds Dataset, codec string) (perf.OperatingPoint, error) {
	if cfg.Mode == Measured {
		c, err := baseline.ByName(codec)
		if err != nil {
			return perf.OperatingPoint{}, err
		}
		return measuredCPUPoint(c, ds.Data, cfg.Workers)
	}
	return perf.CalibratedCPU(ds.ID, codec)
}

// table renders rows of cells with aligned columns.
func table(header []string, rows [][]string) string {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, r := range rows {
		for i, c := range r {
			if len(c) > width[i] {
				width[i] = len(c)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", width[i], c)
		}
		b.WriteByte('\n')
	}
	line(header)
	for i, w := range width {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, r := range rows {
		line(r)
	}
	return b.String()
}
