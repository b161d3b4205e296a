package gpu

import "math/bits"

// Cost constants, in warp-instruction issue slots. These are deliberately
// coarse — the model targets figure *shapes* (relative costs of strategies,
// rounds, occupancy), not cycle accuracy.
const (
	costALU     = 1 // simple arithmetic / logic / predicate
	costBallot  = 1 // warp vote
	costShfl    = 1 // warp shuffle
	costSmem    = 2 // shared-memory load/store (bank-conflict free)
	costGmemIns = 2 // issue + address math per global transaction

	// scatterAmplify models the sector overfetch of non-coalesced accesses:
	// an 8-byte lane access still moves a wider memory sector.
	scatterAmplify = 2
)

// gmemSegment is the global-memory transaction size; a fully coalesced warp
// access moves data in 128-byte segments.
const gmemSegment = 128

// Counters accumulates the cost model state of one warp (or aggregated over
// many warps).
type Counters struct {
	Instr  int64 // warp-instruction issue slots
	Stalls int64 // dependent-latency cycles (memory round trips the
	// warp must wait out; hidden only by other resident warps)
	Ballots   int64
	Shuffles  int64
	SmemOps   int64
	GmemTxns  int64 // global-memory transactions
	GmemBytes int64 // global-memory bytes moved (incl. sector overfetch)
}

// Add accumulates other into c.
func (c *Counters) Add(other Counters) {
	c.Instr += other.Instr
	c.Stalls += other.Stalls
	c.Ballots += other.Ballots
	c.Shuffles += other.Shuffles
	c.SmemOps += other.SmemOps
	c.GmemTxns += other.GmemTxns
	c.GmemBytes += other.GmemBytes
}

// Cycles converts the counters into issue-slot cycles for one warp
// (excluding stalls, which overlap across warps and are modeled separately).
func (c *Counters) Cycles() int64 {
	return c.Instr + c.GmemTxns*costGmemIns
}

// CriticalCycles is the warp's serial critical path: issue slots plus the
// latency it must personally wait out.
func (c *Counters) CriticalCycles() int64 {
	return c.Cycles() + c.Stalls
}

// Warp is a 32-lane lock-step execution context. Kernels keep per-lane state
// in [WarpSize]T arrays and use the warp primitives for cross-lane
// communication, mirroring warp-synchronous CUDA code.
type Warp struct {
	Counters
	Block int // thread-group index this warp executes
}

// ChargeALU accounts n warp-wide ALU instructions.
func (w *Warp) ChargeALU(n int64) { w.Instr += n * costALU }

// ChargeLaneWork accounts work where each active lane performs up to n
// serial steps but lanes run concurrently: in lock-step the warp pays for
// the maximum lane, which callers pass as n.
func (w *Warp) ChargeLaneWork(n int64, perStep int64) { w.Instr += n * perStep }

// Stall charges n cycles of dependent latency: a memory round trip (or a
// chain of them) that this warp must wait for before its next instruction.
// Unlike issue slots, stalls of different resident warps overlap, so the
// device model divides the stall pool by warp residency. This is what makes
// Sequential Copying slow (one dependent copy chain per lane, serialized)
// and Dependency Elimination fast (one chain for the whole warp).
func (w *Warp) Stall(n int64) { w.Stalls += n }

// Ballot implements the CUDA ballot(b) warp vote (paper §II-B): bit i of the
// result is lane i's predicate. The caller passes the assembled vote mask;
// Ballot charges the vote and returns it to every lane (by value).
func (w *Warp) Ballot(votes uint32) uint32 {
	w.Ballots++
	w.Instr += costBallot
	return votes
}

// Shfl implements the CUDA shfl(v, i) broadcast (paper §II-B): every lane
// receives lane src's value.
func Shfl[T any](w *Warp, vals *[WarpSize]T, src int) T {
	w.Shuffles++
	w.Instr += costShfl
	return vals[src&(WarpSize-1)]
}

// ExclScan32 computes a warp-wide exclusive prefix sum over per-lane values
// using the standard shfl-up construction ("a common GPU technique", paper
// §III-B2a): log2(32) = 5 shuffle+add steps, no memory traffic.
func (w *Warp) ExclScan32(vals *[WarpSize]int32) [WarpSize]int32 {
	incl := *vals
	for d := 1; d < WarpSize; d <<= 1 {
		w.Shuffles++
		w.Instr += costShfl + costALU
		var next [WarpSize]int32
		for i := 0; i < WarpSize; i++ {
			next[i] = incl[i]
			if i-d >= 0 {
				next[i] += incl[i-d]
			}
		}
		incl = next
	}
	var excl [WarpSize]int32
	for i := 1; i < WarpSize; i++ {
		excl[i] = incl[i-1]
	}
	return excl
}

// GmemRead charges a warp-wide global-memory read of n bytes. A coalesced
// access moves ceil(n/128) transactions; a scattered per-lane access pays up
// to one transaction per lane regardless of size.
func (w *Warp) GmemRead(n int64, coalesced bool) {
	w.chargeGmem(n, coalesced)
}

// GmemWrite charges a warp-wide global-memory write of n bytes.
func (w *Warp) GmemWrite(n int64, coalesced bool) {
	w.chargeGmem(n, coalesced)
}

func (w *Warp) chargeGmem(n int64, coalesced bool) {
	if n <= 0 {
		return
	}
	var txns int64
	if coalesced {
		txns = (n + gmemSegment - 1) / gmemSegment
	} else {
		// Scattered: lanes issue independent vectorized accesses. The paper
		// notes threads copy "multiple back-reference characters at a time,
		// avoiding the high per character cost" — modeled as 8-byte chunks,
		// one transaction each, with sector overfetch on the bus.
		txns = (n + 7) / 8
		n *= scatterAmplify
	}
	w.GmemTxns += txns
	w.GmemBytes += n
}

// SmemWrite charges n shared-memory stores (e.g. building decode tables).
func (w *Warp) SmemWrite(n int64) {
	w.SmemOps += n
	w.Instr += n * costSmem
}

// Ctz returns trailing zeros; MRR and DE use it to find the first pending
// lane in a ballot mask (the role clz plays in paper Fig. 5, line 9).
func Ctz(v uint32) int { return bits.TrailingZeros32(v) }
