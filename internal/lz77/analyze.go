package lz77

import "fmt"

// MRRStats summarizes a Multi-Round Resolution simulation of a token stream:
// how many rounds each warp group of sequences needs, and how many
// back-reference bytes resolve in each round. This is the quantity behind
// paper Figs. 9b and 9c, computed here analytically as an oracle for the
// simulated kernels.
type MRRStats struct {
	GroupSize     int
	Groups        int     // groups containing at least one back-reference
	Rounds        []int   // per group (only groups with ≥ 1 back-reference)
	BytesPerRound []int64 // [r-1] = total match bytes resolved in round r
	SeqsPerRound  []int64 // [r-1] = back-references resolved in round r
	MaxRounds     int
	TotalBytes    int64 // total match bytes
}

// AvgRounds is the mean round count over groups with back-references
// (paper §V-A: ≈ 3 for Wikipedia, ≈ 4 for the matrix dataset).
func (s *MRRStats) AvgRounds() float64 {
	if s.Groups == 0 {
		return 0
	}
	total := 0
	for _, r := range s.Rounds {
		total += r
	}
	return float64(total) / float64(s.Groups)
}

// groupLayout holds the output-coordinate layout of one warp group.
type groupLayout struct {
	outStart  int   // output position where the group's first literal lands
	litPos    []int // per lane: literal write position
	brPos     []int // per lane: back-reference write position
	brEnd     []int // per lane: back-reference end position
	readStart []int // per lane: match source start (-1 if no match)
	readEnd   []int
}

func layoutGroup(seqs []Seq, outStart int) groupLayout {
	g := groupLayout{outStart: outStart}
	pos := outStart
	for _, s := range seqs {
		g.litPos = append(g.litPos, pos)
		pos += int(s.LitLen)
		g.brPos = append(g.brPos, pos)
		pos += int(s.MatchLen)
		g.brEnd = append(g.brEnd, pos)
		if s.MatchLen > 0 {
			rs := g.brPos[len(g.brPos)-1] - int(s.Offset)
			g.readStart = append(g.readStart, rs)
			g.readEnd = append(g.readEnd, rs+int(s.MatchLen))
		} else {
			g.readStart = append(g.readStart, -1)
			g.readEnd = append(g.readEnd, -1)
		}
	}
	return g
}

// AnalyzeMRR simulates the MRR availability rule over a token stream without
// running the device kernels:
//
//	round: HWM = back-reference write position of the first pending lane
//	       (all literals are already written, so the gapless prefix extends
//	       through that lane's literal); every pending lane whose source
//	       interval ends at or below HWM resolves, and the first pending lane
//	       always resolves (overlap-aware sequential copy — see DESIGN.md).
//
// The kernel implementation in internal/kernels must produce identical round
// structure; tests cross-check the two.
func AnalyzeMRR(ts *TokenStream, groupSize int) *MRRStats {
	if groupSize <= 0 {
		groupSize = DefaultGroupSize
	}
	stats := &MRRStats{GroupSize: groupSize}
	outStart := 0
	for base := 0; base < len(ts.Seqs); base += groupSize {
		end := base + groupSize
		if end > len(ts.Seqs) {
			end = len(ts.Seqs)
		}
		group := ts.Seqs[base:end]
		g := layoutGroup(group, outStart)
		outStart = g.brEnd[len(g.brEnd)-1]

		pending := make([]bool, len(group))
		nPending := 0
		for i, s := range group {
			if s.MatchLen > 0 {
				pending[i] = true
				nPending++
				stats.TotalBytes += int64(s.MatchLen)
			}
		}
		if nPending == 0 {
			continue
		}
		stats.Groups++
		round := 0
		for nPending > 0 {
			round++
			firstPending := -1
			for i := range pending {
				if pending[i] {
					firstPending = i
					break
				}
			}
			hwm := g.brPos[firstPending]
			resolvedAny := false
			var roundBytes int64
			var roundSeqs int64
			for i := range pending {
				if !pending[i] {
					continue
				}
				if i == firstPending || g.readEnd[i] <= hwm {
					pending[i] = false
					nPending--
					resolvedAny = true
					roundBytes += int64(group[i].MatchLen)
					roundSeqs++
				}
			}
			if !resolvedAny {
				panic(fmt.Sprintf("lz77: MRR made no progress in group at seq %d", base))
			}
			for len(stats.BytesPerRound) < round {
				stats.BytesPerRound = append(stats.BytesPerRound, 0)
				stats.SeqsPerRound = append(stats.SeqsPerRound, 0)
			}
			stats.BytesPerRound[round-1] += roundBytes
			stats.SeqsPerRound[round-1] += roundSeqs
		}
		stats.Rounds = append(stats.Rounds, round)
		if round > stats.MaxRounds {
			stats.MaxRounds = round
		}
	}
	return stats
}

// CheckDE verifies that a token stream is resolvable in a single
// back-reference round per warp group, i.e. that a Dependency-Elimination
// parse really eliminated intra-group dependencies. Streams produced with
// DEStrict or DELit must always pass.
func CheckDE(ts *TokenStream, groupSize int) error {
	stats := AnalyzeMRR(ts, groupSize)
	if stats.MaxRounds > 1 {
		return fmt.Errorf("lz77: stream needs %d MRR rounds; not dependency-free", stats.MaxRounds)
	}
	return nil
}
