package gpu

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSpecValidate(t *testing.T) {
	if err := TeslaK40().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := TeslaK40()
	bad.SMs = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero SMs accepted")
	}
	bad = TeslaK40()
	bad.GlobalMemBW = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
}

func TestOccupancySharedMemLimit(t *testing.T) {
	s := TeslaK40() // 48 KB shared per SM
	// Two CWL=10 Huffman LUTs at 4 B/entry = 8 KB per block → 6 blocks/SM.
	if got := s.OccupantWarpsPerSM(8<<10, 1); got != 6 {
		t.Fatalf("8KB/block occupancy = %d, want 6", got)
	}
	// No shared memory → limited by MaxBlocksPerSM.
	if got := s.OccupantWarpsPerSM(0, 1); got != s.MaxBlocksPerSM {
		t.Fatalf("0KB/block occupancy = %d, want %d", got, s.MaxBlocksPerSM)
	}
	// Huge footprint → one block.
	if got := s.OccupantWarpsPerSM(40<<10, 1); got != 1 {
		t.Fatalf("40KB/block occupancy = %d, want 1", got)
	}
}

func TestBallot(t *testing.T) {
	w := &Warp{}
	want := uint32(1 | 1<<3 | 1<<31)
	got := w.Ballot(want)
	if got != want {
		t.Fatalf("ballot = %#x, want %#x", got, want)
	}
	if w.Ballots != 1 {
		t.Fatalf("ballots counted = %d", w.Ballots)
	}
}

func TestShfl(t *testing.T) {
	w := &Warp{}
	var vals [WarpSize]int
	for i := range vals {
		vals[i] = i * 10
	}
	if got := Shfl(w, &vals, 7); got != 70 {
		t.Fatalf("shfl = %d", got)
	}
	// Source lane wraps modulo warp size like CUDA.
	if got := Shfl(w, &vals, 33); got != 10 {
		t.Fatalf("shfl wrap = %d", got)
	}
	if w.Shuffles != 2 {
		t.Fatalf("shuffles counted = %d", w.Shuffles)
	}
}

func TestExclScan(t *testing.T) {
	w := &Warp{}
	var vals [WarpSize]int32
	for i := range vals {
		vals[i] = int32(i + 1)
	}
	got := w.ExclScan32(&vals)
	sum := int32(0)
	for i := 0; i < WarpSize; i++ {
		if got[i] != sum {
			t.Fatalf("scan[%d] = %d, want %d", i, got[i], sum)
		}
		sum += vals[i]
	}
}

func TestExclScanQuick(t *testing.T) {
	w := &Warp{}
	f := func(raw [WarpSize]uint16) bool {
		var vals [WarpSize]int32
		for i, v := range raw {
			vals[i] = int32(v)
		}
		got := w.ExclScan32(&vals)
		sum := int32(0)
		for i := 0; i < WarpSize; i++ {
			if got[i] != sum {
				return false
			}
			sum += vals[i]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestClzCtz(t *testing.T) {
	if Ctz(1) != 0 || Ctz(1<<3|1<<31) != 3 || Ctz(1<<31) != 31 {
		t.Fatal("ctz wrong")
	}
}

func TestLaunchRunsAllBlocks(t *testing.T) {
	d := MustDevice(TeslaK40())
	var count int64
	seen := make([]int32, 100)
	stats, err := d.Launch(LaunchConfig{Label: "test", Blocks: 100}, func(w *Warp, block int) {
		atomic.AddInt64(&count, 1)
		atomic.AddInt32(&seen[block], 1)
		w.ChargeALU(10)
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 100 {
		t.Fatalf("ran %d blocks", count)
	}
	for b, c := range seen {
		if c != 1 {
			t.Fatalf("block %d ran %d times", b, c)
		}
	}
	if stats.Instr != 1000 {
		t.Fatalf("instr = %d, want 1000", stats.Instr)
	}
	if stats.Time <= 0 {
		t.Fatal("no simulated time")
	}
}

func TestLaunchDeterministicStats(t *testing.T) {
	d := MustDevice(TeslaK40())
	run := func() *LaunchStats {
		s, err := d.Launch(LaunchConfig{Blocks: 64, SharedMemPerBlock: 8 << 10}, func(w *Warp, block int) {
			w.ChargeALU(int64(block + 1))
			w.GmemRead(int64(block)*128, true)
		})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := run(), run()
	if a.Counters != b.Counters || a.Time != b.Time || a.MaxWarpCycles != b.MaxWarpCycles {
		t.Fatalf("nondeterministic stats: %+v vs %+v", a, b)
	}
}

func TestModelMonotonicity(t *testing.T) {
	d := MustDevice(TeslaK40())
	timeFor := func(blocks int, perWarpInstr int64, smem int) float64 {
		s, err := d.Launch(LaunchConfig{Blocks: blocks, SharedMemPerBlock: smem}, func(w *Warp, block int) {
			w.ChargeALU(perWarpInstr)
		})
		if err != nil {
			t.Fatal(err)
		}
		return s.Time
	}
	// More work → more time.
	if timeFor(1000, 1000, 0) >= timeFor(1000, 10000, 0) {
		t.Fatal("time not monotone in work")
	}
	// Lower occupancy (bigger smem footprint) must not be faster.
	if timeFor(1000, 10000, 2<<10) > timeFor(1000, 10000, 24<<10)+1e-12 {
		// allow equality when compute-bound at full hide
	} else if timeFor(1000, 10000, 24<<10) < timeFor(1000, 10000, 2<<10) {
		t.Fatal("time decreased with lower occupancy")
	}
	// Memory-bound launch: time ≥ bytes / bandwidth.
	s, err := d.Launch(LaunchConfig{Blocks: 100}, func(w *Warp, block int) {
		w.GmemRead(1<<20, true)
	})
	if err != nil {
		t.Fatal(err)
	}
	if minTime := float64(100<<20) / d.Spec.GlobalMemBW; s.Time < minTime {
		t.Fatalf("memory-bound time %g < roofline %g", s.Time, minTime)
	}
}

func TestLaunchErrors(t *testing.T) {
	d := MustDevice(TeslaK40())
	if _, err := d.Launch(LaunchConfig{Blocks: -1}, func(w *Warp, block int) {}); err == nil {
		t.Fatal("negative blocks accepted")
	}
	if _, err := d.Launch(LaunchConfig{Blocks: 1, SharedMemPerBlock: 1 << 20}, func(w *Warp, block int) {}); err == nil {
		t.Fatal("oversized shared memory accepted")
	}
}

func TestCountersCycles(t *testing.T) {
	w := &Warp{}
	w.ChargeALU(5)
	w.GmemRead(256, true) // 2 transactions
	base := w.Counters.Cycles()
	if base != 5+2*costGmemIns {
		t.Fatalf("cycles = %d", base)
	}
	w.SmemWrite(3)
	if w.Counters.Cycles() != base+3*costSmem {
		t.Fatalf("smem cycles = %d", w.Counters.Cycles())
	}
}

func TestGmemCoalescing(t *testing.T) {
	coal, scat := &Warp{}, &Warp{}
	coal.GmemRead(128, true)
	scat.GmemRead(128, false)
	if coal.GmemTxns >= scat.GmemTxns {
		t.Fatalf("coalesced %d txns, scattered %d — scattered should cost more",
			coal.GmemTxns, scat.GmemTxns)
	}
}

func TestPCIeTime(t *testing.T) {
	s := TeslaK40()
	if s.PCIeTime(0) != 0 {
		t.Fatal("zero transfer should cost nothing")
	}
	oneGB := s.PCIeTime(1 << 30)
	if oneGB < float64(1<<30)/s.PCIeBW {
		t.Fatal("transfer faster than bandwidth")
	}
	if s.PCIeTime(2<<30) <= oneGB {
		t.Fatal("PCIe time not monotone")
	}
}

func BenchmarkLaunchOverheadSim(b *testing.B) {
	d := MustDevice(TeslaK40())
	for i := 0; i < b.N; i++ {
		if _, err := d.Launch(LaunchConfig{Blocks: 64}, func(w *Warp, block int) {
			w.ChargeALU(100)
		}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExclScan(b *testing.B) {
	w := &Warp{}
	var vals [WarpSize]int32
	for i := range vals {
		vals[i] = int32(i)
	}
	for i := 0; i < b.N; i++ {
		w.ExclScan32(&vals)
	}
}
