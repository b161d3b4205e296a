// Package kernels contains the warp-synchronous decompression kernels of
// Gompresso, written against the internal/gpu simulator:
//
//   - DecodeLaunch: parallel Huffman decoding, one sub-block per lane with
//     shared per-block LUTs (paper §III-B1),
//   - LZ77Launch: one warp per data block resolving 32 sequences at a time
//     with the SC / MRR / DE back-reference strategies (paper §III-B2, §IV),
//   - ByteLaunch: the fused single-pass kernel for Gompresso/Byte,
//   - Decompress: the device engine — a whole container through those
//     launches, with the strategy pick, tiling and PCIe composition. It is
//     the only way the rest of the repository runs the simulator.
//
// Kernels produce bit-exact output; the gpu.Warp they run on accumulates the
// modeled cost.
package kernels

import "fmt"

// Strategy selects how a warp resolves back-references within a group of 32
// sequences (paper §IV).
type Strategy int

const (
	// Auto, the zero value, lets Decompress choose from the container
	// header: DE for a DE-parsed stream, MRR otherwise. The launches
	// themselves take one of the three concrete strategies below.
	Auto Strategy = iota
	// SC is Sequential Copying: the baseline in which lanes copy their
	// back-references strictly one after another (paper §V-A).
	SC
	// MRR is Multi-Round Resolution: iterative resolution driven by warp
	// ballot/shuffle and a high-water mark (paper Fig. 5).
	MRR
	// DE assumes the stream was produced by a Dependency-Elimination parse
	// and resolves every back-reference in a single round, verifying the
	// one-round property as it goes (paper §IV-B).
	DE
)

func (s Strategy) String() string {
	switch s {
	case Auto:
		return "auto"
	case SC:
		return "SC"
	case MRR:
		return "MRR"
	case DE:
		return "DE"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// RoundStats aggregates MRR round behaviour across warp groups, the data
// behind paper Figs. 9b/9c.
type RoundStats struct {
	Groups        int     // groups with at least one back-reference
	BytesPerRound []int64 // [r-1] = match bytes resolved in round r
	SeqsPerRound  []int64
	RoundsHist    []int64 // [r-1] = groups that finished after exactly r rounds
	MaxRounds     int
	TotalRounds   int64
}

// AvgRounds over groups with back-references.
func (r *RoundStats) AvgRounds() float64 {
	if r.Groups == 0 {
		return 0
	}
	return float64(r.TotalRounds) / float64(r.Groups)
}

func (r *RoundStats) recordRound(round int, bytes, seqs int64) {
	for len(r.BytesPerRound) < round {
		r.BytesPerRound = append(r.BytesPerRound, 0)
		r.SeqsPerRound = append(r.SeqsPerRound, 0)
	}
	r.BytesPerRound[round-1] += bytes
	r.SeqsPerRound[round-1] += seqs
}

func (r *RoundStats) recordGroup(rounds int) {
	r.Groups++
	r.TotalRounds += int64(rounds)
	for len(r.RoundsHist) < rounds {
		r.RoundsHist = append(r.RoundsHist, 0)
	}
	r.RoundsHist[rounds-1]++
	if rounds > r.MaxRounds {
		r.MaxRounds = rounds
	}
}

// merge folds other into r (used to combine per-block stats after a launch).
func (r *RoundStats) merge(other *RoundStats) {
	r.Groups += other.Groups
	r.TotalRounds += other.TotalRounds
	if other.MaxRounds > r.MaxRounds {
		r.MaxRounds = other.MaxRounds
	}
	for i, v := range other.BytesPerRound {
		for len(r.BytesPerRound) <= i {
			r.BytesPerRound = append(r.BytesPerRound, 0)
			r.SeqsPerRound = append(r.SeqsPerRound, 0)
		}
		r.BytesPerRound[i] += v
		r.SeqsPerRound[i] += other.SeqsPerRound[i]
	}
	for i, v := range other.RoundsHist {
		for len(r.RoundsHist) <= i {
			r.RoundsHist = append(r.RoundsHist, 0)
		}
		r.RoundsHist[i] += v
	}
}
