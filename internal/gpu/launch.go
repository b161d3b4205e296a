package gpu

import (
	"fmt"
	"runtime"
	"sync"

	"gompresso/internal/parallel"
)

// Kernel is the body of a one-warp thread-group. The simulator calls it once
// per block with a fresh Warp for cost accounting. Kernels must not share
// mutable state across blocks except through pre-partitioned output slices
// (the GPU programming model's independence assumption).
type Kernel func(w *Warp, block int)

// LaunchConfig describes a kernel launch.
type LaunchConfig struct {
	Label  string
	Blocks int // total warps to execute (the kernel is called once per warp)
	// WarpsPerGroup is the thread-group width in warps for occupancy
	// accounting (shared memory is allocated per group). Zero means 1.
	WarpsPerGroup     int
	SharedMemPerBlock int // bytes of on-chip memory each group occupies
	// TileFactor models a launch over TileFactor repetitions of this input
	// (the paper evaluates 1 GB datasets; small reproductions would
	// otherwise under-fill the device). It only affects warp residency in
	// the time model — counters and outputs describe the actual launch.
	TileFactor int
}

// LaunchStats aggregates the cost-model output of one kernel launch.
type LaunchStats struct {
	Label  string
	Blocks int

	Counters            // summed over all warps
	MaxWarpCycles int64 // critical path

	OccupantWarpsPerSM int     // resident warps per SM under the smem limit
	Time               float64 // simulated kernel time, seconds
	ComputeTime        float64 // compute-roofline component
	MemTime            float64 // memory-roofline component
	LatencyTime        float64 // stall-pool component
}

// Device executes kernels and accumulates per-launch statistics.
type Device struct {
	Spec    Spec
	workers int
}

// NewDevice validates the spec and returns a Device. workers ≤ 0 selects
// GOMAXPROCS host goroutines for executing warps.
func NewDevice(spec Spec, workers int) (*Device, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Device{Spec: spec, workers: workers}, nil
}

// MustDevice is NewDevice for known-good specs.
func MustDevice(spec Spec) *Device {
	d, err := NewDevice(spec, 0)
	if err != nil {
		panic(err)
	}
	return d
}

// Launch runs the kernel over cfg.Blocks thread-groups (host-parallel,
// deterministic aggregate) and returns modeled statistics.
func (d *Device) Launch(cfg LaunchConfig, k Kernel) (*LaunchStats, error) {
	if cfg.Blocks < 0 {
		return nil, fmt.Errorf("gpu: launch %q: negative block count", cfg.Label)
	}
	if cfg.SharedMemPerBlock > d.Spec.SharedMemPerSM {
		return nil, fmt.Errorf("gpu: launch %q: shared memory per block %d exceeds SM capacity %d",
			cfg.Label, cfg.SharedMemPerBlock, d.Spec.SharedMemPerSM)
	}
	stats := &LaunchStats{Label: cfg.Label, Blocks: cfg.Blocks}
	stats.OccupantWarpsPerSM = d.Spec.OccupantWarpsPerSM(cfg.SharedMemPerBlock, cfg.WarpsPerGroup)
	if cfg.Blocks == 0 {
		stats.Time = d.Spec.LaunchOverhead
		return stats, nil
	}
	if stats.OccupantWarpsPerSM == 0 {
		return nil, fmt.Errorf("gpu: launch %q: zero occupancy (smem/block %d)", cfg.Label, cfg.SharedMemPerBlock)
	}

	// Execute warps on the persistent worker pool with a pooled counter
	// arena. Each warp writes only its own counter slot, so aggregation is
	// deterministic; strided shares replace the old per-launch goroutine and
	// channel churn.
	arena := counterPool.Get().(*[]Counters)
	if cap(*arena) < cfg.Blocks {
		*arena = make([]Counters, cfg.Blocks)
	}
	perWarp := (*arena)[:cfg.Blocks]
	parallel.For(cfg.Blocks, d.workers, func(b int) {
		w := Warp{Block: b}
		k(&w, b)
		perWarp[b] = w.Counters
	})

	for _, c := range perWarp {
		stats.Counters.Add(c)
		if cyc := c.CriticalCycles(); cyc > stats.MaxWarpCycles {
			stats.MaxWarpCycles = cyc
		}
	}
	counterPool.Put(arena)
	d.model(cfg, stats)
	return stats, nil
}

// counterPool recycles per-launch warp-counter arenas.
var counterPool = sync.Pool{New: func() any { return new([]Counters) }}

// model converts aggregate counters into simulated time with a roofline over
// three resources:
//
//	compute: total issue slots spread over SMs × issue rate, derated when too
//	         few warps are resident to keep the schedulers fed;
//	latency: the pooled dependent-stall cycles, which overlap across resident
//	         warps (Little's law: stall throughput = resident warps / latency);
//	memory:  global traffic at device bandwidth.
//
// The launch time is their maximum, floored by the slowest single warp's
// critical path, plus the launch overhead.
func (d *Device) model(cfg LaunchConfig, s *LaunchStats) {
	spec := d.Spec
	totalCycles := s.Counters.Cycles()

	// Resident warps across the device while work remains.
	resident := s.OccupantWarpsPerSM * spec.SMs
	tile := cfg.TileFactor
	if tile < 1 {
		tile = 1
	}
	if cfg.Blocks*tile < resident {
		resident = cfg.Blocks * tile
	}
	hide := float64(resident) / float64(spec.LatencyHideWarps*spec.SMs)
	if hide > 1 {
		hide = 1
	}
	issueRate := float64(spec.SMs*spec.IssuePerSMCycle) * hide // warp-instr per cycle
	if issueRate <= 0 {
		issueRate = 1
	}
	s.ComputeTime = float64(totalCycles) / issueRate / spec.ClockHz
	s.LatencyTime = float64(s.Counters.Stalls) / float64(resident) / spec.ClockHz
	s.MemTime = float64(s.GmemBytes) / spec.GlobalMemBW
	t := maxf(s.ComputeTime, maxf(s.MemTime, s.LatencyTime))
	// Critical-path floor: no launch finishes before its slowest warp. Under
	// tiling the floor amortizes across waves (the replicated launch's
	// critical path stays one warp long while every throughput term scales),
	// so the per-actual-launch floor shrinks by the tile factor.
	if critical := float64(s.MaxWarpCycles) / spec.ClockHz / float64(tile); critical > t {
		t = critical
	}
	s.Time = spec.LaunchOverhead + t
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
