package figures

import "fmt"

// The offline models behind Figs. 13/14: wall-socket energy and the
// paper-calibrated CPU-library operating points of the Calibrated mode.

// System power presets, wall socket, under decompression load. The paper
// measured energy with a power meter at the plug and notes that power "does
// not differ significantly for different algorithms" on the same platform
// (§V-D) — energy differences come from runtime. For CPU-only runs the GPUs
// were physically removed.
const (
	// cpuSystemWatts models the dual-socket E5-2620v2 server (paper §V),
	// GPUs removed.
	cpuSystemWatts = 230.0
	// gpuSystemWatts models the same server while the Tesla K40 does the
	// decompression: the host sockets sit near idle (~110 W) and the K40
	// board draws close to its 235 W TDP under memory-intensive kernels.
	// This is the operating point behind the paper's 17 % energy saving.
	gpuSystemWatts = 300.0
)

// energy returns joules for a run of the given duration at the given system
// power.
func energy(watts, seconds float64) float64 { return watts * seconds }

// operatingPoint is a (decompression speed, compression ratio) pair.
type operatingPoint struct {
	GBps  float64
	Ratio float64
}

// calibratedCPU returns the operating point of a parallel CPU library on a
// dataset (by Dataset.Name) as read off the paper's Fig. 13 (24 hardware
// threads on the dual E5-2620v2). The Calibrated mode uses these so the CPU
// side of Figs. 13/14 reproduces the paper's geometry regardless of the host
// running the reproduction; the Measured mode runs the real Go codecs instead.
func calibratedCPU(dataset, codec string) (operatingPoint, error) {
	table := map[string]map[string]operatingPoint{
		"Wikipedia": {
			"Snappy": {GBps: 6.5, Ratio: 2.07},
			"LZ4":    {GBps: 7.0, Ratio: 2.10},
			"Zstd":   {GBps: 4.6, Ratio: 3.20},
			"zlib":   {GBps: 5.0, Ratio: 3.09},
		},
		"Matrix": {
			"Snappy": {GBps: 7.5, Ratio: 3.50},
			"LZ4":    {GBps: 8.0, Ratio: 3.60},
			"Zstd":   {GBps: 5.0, Ratio: 6.20},
			"zlib":   {GBps: 5.5, Ratio: 4.99},
		},
	}
	pts, ok := table[dataset]
	if !ok {
		return operatingPoint{}, fmt.Errorf("figures: unknown dataset %q", dataset)
	}
	pt, ok := pts[codec]
	if !ok {
		return operatingPoint{}, fmt.Errorf("figures: no calibration for codec %q", codec)
	}
	return pt, nil
}
