package lz77

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

// corpora returns a varied set of test inputs.
func corpora(rng *rand.Rand) map[string][]byte {
	random := make([]byte, 20000)
	rng.Read(random)
	lowEntropy := make([]byte, 20000)
	for i := range lowEntropy {
		lowEntropy[i] = byte(rng.Intn(4))
	}
	textish := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 500))
	runs := bytes.Repeat([]byte{'a'}, 10000)
	mixed := append(append([]byte{}, textish[:5000]...), random[:5000]...)
	return map[string][]byte{
		"empty":      {},
		"one":        {42},
		"tiny":       []byte("abc"),
		"random":     random,
		"lowentropy": lowEntropy,
		"text":       textish,
		"runs":       runs,
		"mixed":      mixed,
	}
}

func roundtrip(t *testing.T, name string, src []byte, opts Options) *TokenStream {
	t.Helper()
	ts, err := Parse(src, opts)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	if err := ts.Validate(); err != nil {
		t.Fatalf("%s: validate: %v", name, err)
	}
	got, err := ts.Decompress(make([]byte, 0, len(src)))
	if err != nil {
		t.Fatalf("%s: decompress: %v", name, err)
	}
	if !bytes.Equal(got, src) {
		t.Fatalf("%s: roundtrip mismatch: got %d bytes want %d", name, len(got), len(src))
	}
	return ts
}

func TestRoundtripGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, src := range corpora(rng) {
		roundtrip(t, name, src, Options{})
	}
}

func TestRoundtripDEStrict(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for name, src := range corpora(rng) {
		ts := roundtrip(t, name, src, Options{DE: DEStrict})
		if err := CheckDE(ts, DefaultGroupSize); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRoundtripDELit(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for name, src := range corpora(rng) {
		ts := roundtrip(t, name, src, Options{DE: DELit})
		if err := CheckDE(ts, DefaultGroupSize); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRoundtripSingleMatcher(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for name, src := range corpora(rng) {
		for _, de := range []DEMode{DEOff, DEStrict, DELit} {
			ts := roundtrip(t, name+"/"+de.String(), src, Options{DE: de, Staleness: DefaultStaleness})
			if de != DEOff {
				if err := CheckDE(ts, DefaultGroupSize); err != nil {
					t.Fatalf("%s %s: %v", name, de, err)
				}
			}
		}
	}
}

// DEStrict structural property: every match's source interval ends at or
// before the input position where its warp group began.
func TestDEStrictStructural(t *testing.T) {
	src := []byte(strings.Repeat("gompresso decompresses blocks in parallel on warps. ", 2000))
	ts, err := Parse(src, Options{DE: DEStrict})
	if err != nil {
		t.Fatal(err)
	}
	outPos := 0
	groupStart := 0
	for i, s := range ts.Seqs {
		if i%DefaultGroupSize == 0 {
			groupStart = outPos
		}
		outPos += int(s.LitLen)
		if s.MatchLen > 0 {
			readEnd := outPos - int(s.Offset) + int(s.MatchLen)
			if readEnd > groupStart {
				t.Fatalf("seq %d: source end %d beyond group start %d", i, readEnd, groupStart)
			}
			outPos += int(s.MatchLen)
		}
	}
}

// Unrestricted parses of self-similar data should contain intra-group
// dependencies (that is what MRR exists for).
func TestGreedyHasDependencies(t *testing.T) {
	src := []byte(strings.Repeat("abcdefghij", 5000))
	ts, err := Parse(src, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckDE(ts, DefaultGroupSize); err == nil {
		t.Fatal("expected intra-group dependencies in greedy parse of repetitive data")
	}
	stats := AnalyzeMRR(ts, DefaultGroupSize)
	if stats.MaxRounds < 2 {
		t.Fatalf("expected ≥2 rounds, got %d", stats.MaxRounds)
	}
}

// Compression-ratio ordering: restricting matches can only cost ratio.
func TestDERatioCost(t *testing.T) {
	src := []byte(strings.Repeat("row col value 1.00321 17 42\n", 8000))
	sizes := map[DEMode]int{}
	for _, de := range []DEMode{DEOff, DELit, DEStrict} {
		ts, err := Parse(src, Options{DE: de})
		if err != nil {
			t.Fatal(err)
		}
		sizes[de] = ts.CompressedSizeByte()
	}
	if sizes[DEOff] > sizes[DEStrict] {
		t.Fatalf("DE strict (%d) compressed smaller than unrestricted (%d)", sizes[DEStrict], sizes[DEOff])
	}
	if sizes[DELit] > 2*sizes[DEOff] || sizes[DEStrict] > 3*sizes[DEOff] {
		t.Fatalf("DE cost too large: off=%d lit=%d strict=%d", sizes[DEOff], sizes[DELit], sizes[DEStrict])
	}
	if sizes[DEOff] >= len(src) {
		t.Fatalf("repetitive data did not compress: %d >= %d", sizes[DEOff], len(src))
	}
}

func TestAnalyzeMRRHandBuilt(t *testing.T) {
	// Three sequences forming a dependency chain: seq2 reads seq1's
	// back-reference output, seq3 reads seq2's. Must take 3 rounds.
	ts := &TokenStream{
		Literals: []byte("abcd"),
		Seqs: []Seq{
			{LitLen: 4, MatchLen: 4, Offset: 4},
			{LitLen: 0, MatchLen: 4, Offset: 4},
			{LitLen: 0, MatchLen: 4, Offset: 4},
		},
		RawLen: 16,
	}
	out, err := ts.Decompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "abcdabcdabcdabcd" {
		t.Fatalf("decompress got %q", out)
	}
	stats := AnalyzeMRR(ts, 32)
	if len(stats.Rounds) != 1 || stats.Rounds[0] != 3 {
		t.Fatalf("rounds = %v, want [3]", stats.Rounds)
	}
	want := []int64{4, 4, 4}
	for r, b := range stats.BytesPerRound {
		if b != want[r] {
			t.Fatalf("bytes per round = %v, want %v", stats.BytesPerRound, want)
		}
	}
}

func TestAnalyzeMRRIndependent(t *testing.T) {
	// Back-references that only read literals resolve in one round.
	ts := &TokenStream{
		Literals: []byte("abcdefgh"),
		Seqs: []Seq{
			{LitLen: 4, MatchLen: 4, Offset: 4}, // reads lit of seq1
			{LitLen: 4, MatchLen: 4, Offset: 12},
		},
		RawLen: 16,
	}
	if _, err := ts.Decompress(nil); err != nil {
		t.Fatal(err)
	}
	stats := AnalyzeMRR(ts, 32)
	if stats.MaxRounds != 1 {
		t.Fatalf("max rounds = %d, want 1", stats.MaxRounds)
	}
}

func TestSelfOverlapRLE(t *testing.T) {
	// offset < length: classic RLE back-reference.
	ts := &TokenStream{
		Literals: []byte("ab"),
		Seqs:     []Seq{{LitLen: 2, MatchLen: 10, Offset: 2}},
		RawLen:   12,
	}
	out, err := ts.Decompress(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != "ababababobab"[:0]+"abababababab" {
		t.Fatalf("got %q", out)
	}
	// Self-overlap resolves in one round via the first-pending rule.
	stats := AnalyzeMRR(ts, 32)
	if stats.MaxRounds != 1 {
		t.Fatalf("rounds %d", stats.MaxRounds)
	}
}

func TestCorruptStreams(t *testing.T) {
	cases := map[string]*TokenStream{
		"litOverrun":  {Literals: []byte("ab"), Seqs: []Seq{{LitLen: 5}}, RawLen: 5},
		"badOffset":   {Literals: []byte("ab"), Seqs: []Seq{{LitLen: 2, MatchLen: 3, Offset: 9}}, RawLen: 5},
		"zeroOffset":  {Literals: []byte("ab"), Seqs: []Seq{{LitLen: 2, MatchLen: 3, Offset: 0}}, RawLen: 5},
		"trailingLit": {Literals: []byte("abcd"), Seqs: []Seq{{LitLen: 2}}, RawLen: 2},
		"rawLen":      {Literals: []byte("ab"), Seqs: []Seq{{LitLen: 2}}, RawLen: 99},
	}
	for name, ts := range cases {
		if _, err := ts.Decompress(nil); err == nil {
			t.Errorf("%s: Decompress accepted corrupt stream", name)
		}
		if err := ts.Validate(); err == nil {
			t.Errorf("%s: Validate accepted corrupt stream", name)
		}
	}
}

func TestOptionsValidate(t *testing.T) {
	bad := []Options{
		{Window: 4},
		{MinMatch: 2},
		{MinMatch: 5, MaxMatch: 4},
		{GroupSize: -1},
	}
	for i, o := range bad {
		if _, err := Parse([]byte("hello world"), o); err == nil {
			t.Errorf("case %d: bad options accepted", i)
		}
	}
}

func TestSingleMatcherStaleness(t *testing.T) {
	opts := Options{Staleness: 100, Window: 1 << 16}.withDefaults()
	m := newSingleMatcher(opts)
	src := bytes.Repeat([]byte("abcdwxyz"), 100)
	m.insert(src, 0)
	// Re-inserting the same trigram within the staleness horizon must keep
	// the old entry.
	m.insert(src, 8)
	off, l := m.find(src, 16, 16, 8)
	if l == 0 || off != 16 {
		t.Fatalf("expected match against stale entry at 0 (off 16), got off=%d len=%d", off, l)
	}
	// Beyond the horizon the entry is replaced.
	m.insert(src, 120)
	off, _ = m.find(src, 128, 128, 8)
	if off != 8 {
		t.Fatalf("expected replacement entry at 120 (off 8), got off=%d", off)
	}
}

// Property: parses of random structured inputs roundtrip for all modes.
func TestQuickRoundtripAllModes(t *testing.T) {
	f := func(seed int64, mode uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8192)
		src := make([]byte, n)
		// Mix of runs and randomness to exercise matches.
		for i := 0; i < n; {
			if rng.Intn(2) == 0 {
				runLen := 1 + rng.Intn(64)
				b := byte(rng.Intn(8))
				for j := 0; j < runLen && i < n; j++ {
					src[i] = b
					i++
				}
			} else {
				src[i] = byte(rng.Intn(256))
				i++
			}
		}
		opts := Options{DE: DEMode(mode % 3)}
		if seed%2 == 0 {
			opts.Staleness = 256
		}
		ts, err := Parse(src, opts)
		if err != nil {
			return false
		}
		got, err := ts.Decompress(nil)
		if err != nil || !bytes.Equal(got, src) {
			return false
		}
		if opts.DE != DEOff {
			if err := CheckDE(ts, DefaultGroupSize); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkParseGreedy(b *testing.B) { benchParse(b, Options{}) }
func BenchmarkParseDEStrict(b *testing.B) {
	benchParse(b, Options{DE: DEStrict})
}
func BenchmarkParseDELit(b *testing.B) { benchParse(b, Options{DE: DELit}) }
func BenchmarkParseSingleHash(b *testing.B) {
	benchParse(b, Options{Staleness: DefaultStaleness})
}

func benchParse(b *testing.B, opts Options) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 3000))
	b.SetBytes(int64(len(src)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(src, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecompressReference(b *testing.B) {
	src := []byte(strings.Repeat("the quick brown fox jumps over the lazy dog. ", 3000))
	ts, err := Parse(src, Options{})
	if err != nil {
		b.Fatal(err)
	}
	dst := make([]byte, 0, len(src))
	b.SetBytes(int64(len(src)))
	for i := 0; i < b.N; i++ {
		if _, err := ts.Decompress(dst); err != nil {
			b.Fatal(err)
		}
	}
}
