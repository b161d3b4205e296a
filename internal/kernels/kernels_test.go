package kernels

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"gompresso/internal/format"
	"gompresso/internal/gpu"
	"gompresso/internal/lz77"
)

func testDevice() *gpu.Device { return gpu.MustDevice(gpu.TeslaK40()) }

// splitBlocks cuts src into blockSize pieces and parses each.
func splitBlocks(t testing.TB, src []byte, blockSize int, opts lz77.Options) ([]*lz77.TokenStream, []int) {
	t.Helper()
	var streams []*lz77.TokenStream
	var rawLens []int
	for off := 0; off < len(src); off += blockSize {
		end := off + blockSize
		if end > len(src) {
			end = len(src)
		}
		ts, err := lz77.Parse(src[off:end], opts)
		if err != nil {
			t.Fatal(err)
		}
		streams = append(streams, ts)
		rawLens = append(rawLens, end-off)
	}
	return streams, rawLens
}

func testCorpus() []byte {
	rng := rand.New(rand.NewSource(99))
	var buf bytes.Buffer
	words := []string{"warp", "ballot", "shuffle", "huffman", "lz77", "block", "gpu", "decompress"}
	for buf.Len() < 300000 {
		buf.WriteString(words[rng.Intn(len(words))])
		buf.WriteByte(' ')
		if rng.Intn(20) == 0 {
			buf.WriteString(strings.Repeat("=", rng.Intn(40)))
		}
		if rng.Intn(50) == 0 {
			b := make([]byte, rng.Intn(100))
			rng.Read(b)
			buf.Write(b)
		}
	}
	return buf.Bytes()
}

func TestLZ77LaunchMatchesReference(t *testing.T) {
	src := testCorpus()
	const blockSize = 64 << 10
	for _, tc := range []struct {
		parse lz77.DEMode
		strat Strategy
	}{
		{lz77.DEOff, SC},
		{lz77.DEOff, MRR},
		{lz77.DEStrict, SC},
		{lz77.DEStrict, MRR},
		{lz77.DEStrict, DE},
		{lz77.DELit, DE},
		{lz77.DELit, MRR},
	} {
		streams, rawLens := splitBlocks(t, src, blockSize, lz77.Options{DE: tc.parse})
		in := LZ77Input{RawLens: rawLens, BlockSize: blockSize, Out: make([]byte, len(src))}
		for _, ts := range streams {
			in.Tokens = append(in.Tokens, FromTokenStream(ts))
		}
		stats, rounds, err := LZ77Launch(testDevice(), in, tc.strat)
		if err != nil {
			t.Fatalf("parse=%v strat=%v: %v", tc.parse, tc.strat, err)
		}
		if !bytes.Equal(in.Out, src) {
			t.Fatalf("parse=%v strat=%v: output mismatch", tc.parse, tc.strat)
		}
		if stats.Time <= 0 {
			t.Fatalf("parse=%v strat=%v: no simulated time", tc.parse, tc.strat)
		}
		if tc.strat == DE && rounds.MaxRounds > 1 {
			t.Fatalf("DE strategy took %d rounds", rounds.MaxRounds)
		}
	}
}

func TestMRRRoundsMatchOracle(t *testing.T) {
	src := testCorpus()
	const blockSize = 32 << 10
	streams, rawLens := splitBlocks(t, src, blockSize, lz77.Options{})
	in := LZ77Input{RawLens: rawLens, BlockSize: blockSize, Out: make([]byte, len(src))}
	oracle := &lz77.MRRStats{}
	for _, ts := range streams {
		in.Tokens = append(in.Tokens, FromTokenStream(ts))
		s := lz77.AnalyzeMRR(ts, gpu.WarpSize)
		oracle.Groups += s.Groups
		for i, b := range s.BytesPerRound {
			for len(oracle.BytesPerRound) <= i {
				oracle.BytesPerRound = append(oracle.BytesPerRound, 0)
			}
			oracle.BytesPerRound[i] += b
		}
		if s.MaxRounds > oracle.MaxRounds {
			oracle.MaxRounds = s.MaxRounds
		}
	}
	_, rounds, err := LZ77Launch(testDevice(), in, MRR)
	if err != nil {
		t.Fatal(err)
	}
	if rounds.Groups != oracle.Groups {
		t.Fatalf("kernel groups %d, oracle %d", rounds.Groups, oracle.Groups)
	}
	if rounds.MaxRounds != oracle.MaxRounds {
		t.Fatalf("kernel max rounds %d, oracle %d", rounds.MaxRounds, oracle.MaxRounds)
	}
	if len(rounds.BytesPerRound) != len(oracle.BytesPerRound) {
		t.Fatalf("rounds depth %d vs oracle %d", len(rounds.BytesPerRound), len(oracle.BytesPerRound))
	}
	for i := range rounds.BytesPerRound {
		if rounds.BytesPerRound[i] != oracle.BytesPerRound[i] {
			t.Fatalf("round %d: kernel %d bytes, oracle %d", i+1, rounds.BytesPerRound[i], oracle.BytesPerRound[i])
		}
	}
}

func TestDEStrategyRejectsDependentStream(t *testing.T) {
	src := []byte(strings.Repeat("abcdefghij", 20000))
	streams, rawLens := splitBlocks(t, src, 64<<10, lz77.Options{})
	// Greedy parse of repetitive data has intra-group dependencies.
	dep := false
	for _, ts := range streams {
		if lz77.CheckDE(ts, gpu.WarpSize) != nil {
			dep = true
		}
	}
	if !dep {
		t.Skip("corpus unexpectedly dependency-free")
	}
	in := LZ77Input{RawLens: rawLens, BlockSize: 64 << 10, Out: make([]byte, len(src))}
	for _, ts := range streams {
		in.Tokens = append(in.Tokens, FromTokenStream(ts))
	}
	if _, _, err := LZ77Launch(testDevice(), in, DE); err == nil {
		t.Fatal("DE strategy accepted a stream with intra-group dependencies")
	}
}

// Strategy cost ordering on self-similar data: SC must be slowest, DE
// fastest (paper Fig. 9a: DE ≥ 5× SC, MRR in between).
func TestStrategyTimeOrdering(t *testing.T) {
	src := testCorpus()
	const blockSize = 64 << 10
	timeFor := func(parse lz77.DEMode, strat Strategy) float64 {
		streams, rawLens := splitBlocks(t, src, blockSize, lz77.Options{DE: parse})
		in := LZ77Input{RawLens: rawLens, BlockSize: blockSize, Out: make([]byte, len(src))}
		for _, ts := range streams {
			in.Tokens = append(in.Tokens, FromTokenStream(ts))
		}
		stats, _, err := LZ77Launch(testDevice(), in, strat)
		if err != nil {
			t.Fatal(err)
		}
		return stats.Time
	}
	sc := timeFor(lz77.DEOff, SC)
	mrr := timeFor(lz77.DEOff, MRR)
	de := timeFor(lz77.DEStrict, DE)
	if !(sc > mrr && mrr > de) {
		t.Fatalf("time ordering violated: SC %.3gs MRR %.3gs DE %.3gs", sc, mrr, de)
	}
	if sc < 3*de {
		t.Fatalf("SC (%.3gs) should be several times slower than DE (%.3gs)", sc, de)
	}
}

func TestDecodeLaunchMatchesHostDecode(t *testing.T) {
	src := testCorpus()
	const blockSize = 64 << 10
	streams, _ := splitBlocks(t, src, blockSize, lz77.Options{})
	var bitBlocks []*format.BitBlock
	for _, ts := range streams {
		blk, err := format.EncodeBit(ts, 10, 16)
		if err != nil {
			t.Fatal(err)
		}
		bitBlocks = append(bitBlocks, blk)
	}
	stats, soas, err := DecodeLaunch(testDevice(), bitBlocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	if stats.OccupantWarpsPerSM <= 0 {
		t.Fatal("no occupancy reported")
	}
	for i, ts := range streams {
		want := FromTokenStream(ts)
		got := soas[i]
		if !bytes.Equal(got.Literals, want.Literals) {
			t.Fatalf("block %d: literal mismatch", i)
		}
		for j := range want.LitLen {
			if got.LitLen[j] != want.LitLen[j] || got.MatchLen[j] != want.MatchLen[j] || got.Offset[j] != want.Offset[j] {
				t.Fatalf("block %d seq %d: got (%d,%d,%d) want (%d,%d,%d)", i, j,
					got.LitLen[j], got.MatchLen[j], got.Offset[j],
					want.LitLen[j], want.MatchLen[j], want.Offset[j])
			}
		}
	}
	// Shared memory footprint: two CWL=10 LUTs.
	if smem := 2 * (1 << 10) * 4; stats.OccupantWarpsPerSM > testDevice().Spec.OccupantWarpsPerSM(smem, 1)*32 {
		t.Fatalf("occupancy %d implausible", stats.OccupantWarpsPerSM)
	}
}

func TestDecodePlusLZ77EndToEnd(t *testing.T) {
	src := testCorpus()
	const blockSize = 64 << 10
	streams, rawLens := splitBlocks(t, src, blockSize, lz77.Options{DE: lz77.DEStrict})
	var bitBlocks []*format.BitBlock
	for _, ts := range streams {
		blk, err := format.EncodeBit(ts, 10, 16)
		if err != nil {
			t.Fatal(err)
		}
		bitBlocks = append(bitBlocks, blk)
	}
	dev := testDevice()
	_, soas, err := DecodeLaunch(dev, bitBlocks, 1)
	if err != nil {
		t.Fatal(err)
	}
	in := LZ77Input{Tokens: soas, RawLens: rawLens, BlockSize: blockSize, Out: make([]byte, len(src))}
	_, _, err = LZ77Launch(dev, in, DE)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(in.Out, src) {
		t.Fatal("bit pipeline end-to-end mismatch")
	}
}

func TestByteLaunchMatchesReference(t *testing.T) {
	src := testCorpus()
	const blockSize = 64 << 10
	for _, tc := range []struct {
		parse lz77.DEMode
		strat Strategy
	}{
		{lz77.DEOff, SC},
		{lz77.DEOff, MRR},
		{lz77.DEStrict, DE},
	} {
		streams, rawLens := splitBlocks(t, src, blockSize, lz77.Options{DE: tc.parse})
		in := ByteInput{RawLens: rawLens, BlockSize: blockSize, Out: make([]byte, len(src))}
		for _, ts := range streams {
			payload, err := format.EncodeByte(nil, ts)
			if err != nil {
				t.Fatal(err)
			}
			in.Payloads = append(in.Payloads, payload)
			in.NumSeqs = append(in.NumSeqs, len(ts.Seqs))
		}
		_, rounds, err := ByteLaunch(testDevice(), in, tc.strat)
		if err != nil {
			t.Fatalf("parse=%v strat=%v: %v", tc.parse, tc.strat, err)
		}
		if !bytes.Equal(in.Out, src) {
			t.Fatalf("parse=%v strat=%v: output mismatch", tc.parse, tc.strat)
		}
		if tc.strat == MRR && rounds.Groups == 0 {
			t.Fatal("MRR recorded no groups")
		}
	}
}

func TestByteLaunchCorruptPayload(t *testing.T) {
	src := []byte(strings.Repeat("corrupt payload test ", 2000))
	streams, rawLens := splitBlocks(t, src, 32<<10, lz77.Options{})
	in := ByteInput{RawLens: rawLens, BlockSize: 32 << 10, Out: make([]byte, len(src))}
	for _, ts := range streams {
		payload, err := format.EncodeByte(nil, ts)
		if err != nil {
			t.Fatal(err)
		}
		in.Payloads = append(in.Payloads, payload)
		in.NumSeqs = append(in.NumSeqs, len(ts.Seqs))
	}
	// Truncate one payload: must error, not panic or write garbage silently.
	in.Payloads[0] = in.Payloads[0][:len(in.Payloads[0])/2]
	if _, _, err := ByteLaunch(testDevice(), in, MRR); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestRoundStatsMerge(t *testing.T) {
	a := &RoundStats{}
	a.recordRound(1, 100, 10)
	a.recordRound(2, 50, 5)
	a.recordGroup(2)
	b := &RoundStats{}
	b.recordRound(1, 10, 1)
	b.recordGroup(1)
	b.recordRound(1, 20, 2)
	b.recordRound(2, 8, 1)
	b.recordRound(3, 4, 1)
	b.recordGroup(3)
	a.merge(b)
	if a.Groups != 3 || a.MaxRounds != 3 {
		t.Fatalf("groups %d max %d", a.Groups, a.MaxRounds)
	}
	if a.BytesPerRound[0] != 130 || a.BytesPerRound[1] != 58 || a.BytesPerRound[2] != 4 {
		t.Fatalf("bytes per round %v", a.BytesPerRound)
	}
	if got := a.AvgRounds(); got != 2 {
		t.Fatalf("avg rounds %v", got)
	}
}

func BenchmarkLZ77LaunchMRR(b *testing.B) { benchLZ77(b, lz77.DEOff, MRR) }
func BenchmarkLZ77LaunchDE(b *testing.B)  { benchLZ77(b, lz77.DEStrict, DE) }
func BenchmarkLZ77LaunchSC(b *testing.B)  { benchLZ77(b, lz77.DEOff, SC) }

func benchLZ77(b *testing.B, parse lz77.DEMode, strat Strategy) {
	src := testCorpus()
	const blockSize = 64 << 10
	streams, rawLens := splitBlocks(b, src, blockSize, lz77.Options{DE: parse})
	in := LZ77Input{RawLens: rawLens, BlockSize: blockSize, Out: make([]byte, len(src))}
	for _, ts := range streams {
		in.Tokens = append(in.Tokens, FromTokenStream(ts))
	}
	dev := testDevice()
	b.SetBytes(int64(len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LZ77Launch(dev, in, strat); err != nil {
			b.Fatal(err)
		}
	}
}
