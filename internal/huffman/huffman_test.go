package huffman

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"gompresso/internal/bitio"
	"gompresso/internal/race"
)

// testEncoder writes symbols with a tree's canonical codes, the way
// format.EncodeBit does.
type testEncoder []Code

func newTestEncoder(freqs []int64, maxLen int) (testEncoder, []uint8, error) {
	lengths, err := BuildLengths(freqs, maxLen)
	if err != nil {
		return nil, nil, err
	}
	codes, err := CanonicalCodes(lengths, maxLen)
	return codes, lengths, err
}

func (e testEncoder) Encode(w *bitio.Writer, s int) {
	if e[s].Len == 0 {
		panic("encoding a symbol with no code")
	}
	w.WriteBits(uint64(e[s].Bits), uint(e[s].Len))
}

func kraftSum(lengths []uint8) float64 {
	s := 0.0
	for _, l := range lengths {
		if l > 0 {
			s += math.Pow(2, -float64(l))
		}
	}
	return s
}

func TestBuildLengthsBasic(t *testing.T) {
	freqs := []int64{45, 13, 12, 16, 9, 5} // classic CLRS example
	lengths, err := BuildLengths(freqs, 15)
	if err != nil {
		t.Fatal(err)
	}
	// Optimal expected total cost: 45*1+13*3+12*3+16*3+9*4+5*4 = 224.
	var cost int64
	for i, f := range freqs {
		cost += f * int64(lengths[i])
	}
	if cost != 224 {
		t.Fatalf("total cost %d, want optimal 224 (lengths %v)", cost, lengths)
	}
	if s := kraftSum(lengths); math.Abs(s-1) > 1e-12 {
		t.Fatalf("Kraft sum %v", s)
	}
}

func TestBuildLengthsLimited(t *testing.T) {
	// Fibonacci-ish frequencies force long codes without a limit.
	freqs := []int64{1, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377}
	for _, maxLen := range []int{4, 5, 6, 8, 10} {
		lengths, err := BuildLengths(freqs, maxLen)
		if err != nil {
			t.Fatalf("maxLen %d: %v", maxLen, err)
		}
		for s, l := range lengths {
			if l == 0 || int(l) > maxLen {
				t.Fatalf("maxLen %d: symbol %d has length %d", maxLen, s, l)
			}
		}
		if s := kraftSum(lengths); math.Abs(s-1) > 1e-12 {
			t.Fatalf("maxLen %d: Kraft sum %v", maxLen, s)
		}
	}
}

func TestBuildLengthsTooTight(t *testing.T) {
	freqs := make([]int64, 40)
	for i := range freqs {
		freqs[i] = 1
	}
	if _, err := BuildLengths(freqs, 5); err == nil {
		t.Fatal("40 symbols in 5-bit codes should fail")
	}
	if _, err := BuildLengths(freqs, 6); err != nil {
		t.Fatalf("40 symbols in 6-bit codes should fit: %v", err)
	}
}

func TestSingleSymbol(t *testing.T) {
	freqs := make([]int64, 10)
	freqs[7] = 100
	lengths, err := BuildLengths(freqs, 10)
	if err != nil {
		t.Fatal(err)
	}
	if lengths[7] != 1 {
		t.Fatalf("single symbol should get length 1, got %d", lengths[7])
	}
	codes, err := CanonicalCodes(lengths, 10)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths, 10)
	if err != nil {
		t.Fatal(err)
	}
	w := bitio.NewWriter(8)
	for i := 0; i < 5; i++ {
		testEncoder(codes).Encode(w, 7)
	}
	r := bitio.NewReaderBits(w.Bytes(), w.BitLen())
	for i := 0; i < 5; i++ {
		s, err := dec.Decode(r)
		if err != nil || s != 7 {
			t.Fatalf("decode %d: sym %d err %v", i, s, err)
		}
	}
}

func TestEmptyAlphabet(t *testing.T) {
	if _, err := BuildLengths(make([]int64, 5), 10); err != ErrEmptyAlphabet {
		t.Fatalf("want ErrEmptyAlphabet, got %v", err)
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	freqs := make([]int64, 256)
	for i := range freqs {
		freqs[i] = int64(rng.Intn(1000))
	}
	freqs[0] = 100000 // a very frequent symbol
	enc, lengths, err := newTestEncoder(freqs, DefaultCWL)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := NewDecoder(lengths, DefaultCWL)
	if err != nil {
		t.Fatal(err)
	}
	var msg []int
	for i := 0; i < 4096; i++ {
		for {
			s := rng.Intn(256)
			if freqs[s] > 0 {
				msg = append(msg, s)
				break
			}
		}
	}
	w := bitio.NewWriter(4096)
	for _, s := range msg {
		enc.Encode(w, s)
	}
	r := bitio.NewReaderBits(w.Bytes(), w.BitLen())
	for i, want := range msg {
		got, err := dec.Decode(r)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("decode %d: got %d want %d", i, got, want)
		}
	}
}

func TestSerializeLengths(t *testing.T) {
	lengths := []uint8{3, 3, 2, 4, 4, 0, 0, 2, 15}
	data := AppendLengths(nil, lengths)
	if len(data) != LengthsSize(len(lengths)) {
		t.Fatalf("size %d want %d", len(data), LengthsSize(len(lengths)))
	}
	data = append(data, 0xAA, 0xBB) // trailing bytes must be preserved
	// dst is stale and larger than needed: it must be reused and refilled.
	dst := bytes.Repeat([]byte{9}, 32)
	got, rest, err := ParseLengths(dst, data, len(lengths))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(lengths) || &got[0] != &dst[0] {
		t.Fatalf("got %d lengths, reused dst %v", len(got), &got[0] == &dst[0])
	}
	if len(rest) != 2 || rest[0] != 0xAA {
		t.Fatalf("rest = %v", rest)
	}
	for i := range lengths {
		if got[i] != lengths[i] {
			t.Fatalf("length %d: got %d want %d", i, got[i], lengths[i])
		}
	}
}

func TestParseLengthsTruncated(t *testing.T) {
	if _, _, err := ParseLengths(nil, []byte{0x33}, 9); err == nil {
		t.Fatal("want truncation error")
	}
}

func TestValidateLengthsRejectsOverfull(t *testing.T) {
	// Three length-1 codes: Kraft sum 1.5 — must be rejected.
	if err := ValidateLengths([]uint8{1, 1, 1}, 10); err == nil {
		t.Fatal("overfull code accepted")
	}
	// Underfull non-degenerate code must be rejected too (decoder would have
	// dead table entries that hide corruption).
	if err := ValidateLengths([]uint8{1, 2, 0}, 10); err == nil {
		t.Fatal("underfull code accepted")
	}
}

func TestDecoderRejectsBadLengths(t *testing.T) {
	if _, err := NewDecoder([]uint8{1, 1, 1}, 10); err == nil {
		t.Fatal("decoder accepted overfull code")
	}
}

// Property: for random histograms the package-merge code (a) respects the
// length limit, (b) satisfies Kraft equality, and (c) roundtrips a message.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(300)
		maxLen := 9 + rng.Intn(6) // 9..14
		for n > 1<<maxLen {
			n /= 2
		}
		freqs := make([]int64, n)
		used := 0
		for i := range freqs {
			if rng.Intn(3) > 0 {
				freqs[i] = int64(1 + rng.Intn(10000))
				used++
			}
		}
		if used < 2 {
			freqs[0], freqs[n-1] = 5, 9
		}
		enc, lengths, err := newTestEncoder(freqs, maxLen)
		if err != nil {
			return false
		}
		for _, l := range lengths {
			if int(l) > maxLen {
				return false
			}
		}
		if ValidateLengths(lengths, maxLen) != nil {
			return false
		}
		dec, err := NewDecoder(lengths, maxLen)
		if err != nil {
			return false
		}
		w := bitio.NewWriter(512)
		var msg []int
		for i := 0; i < 200; i++ {
			s := rng.Intn(n)
			if freqs[s] == 0 {
				continue
			}
			msg = append(msg, s)
			enc.Encode(w, s)
		}
		r := bitio.NewReaderBits(w.Bytes(), w.BitLen())
		for _, want := range msg {
			got, err := dec.Decode(r)
			if err != nil || got != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: package-merge with a loose limit matches unlimited Huffman cost.
func TestQuickOptimalCost(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		freqs := make([]int64, n)
		for i := range freqs {
			freqs[i] = int64(1 + rng.Intn(100))
		}
		lengths, err := BuildLengths(freqs, 15)
		if err != nil {
			return false
		}
		var got int64
		for i, f := range freqs {
			got += f * int64(lengths[i])
		}
		return got == huffmanCostRef(freqs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// buildLengthsOracle is package-merge as this package first shipped it: every
// item carries the multiset of leaves under it. Emitted containers store the
// lengths, so BuildLengths must reproduce these exactly — ties included — not
// merely match their cost.
func buildLengthsOracle(freqs []int64, maxLen int) []uint8 {
	type leaf struct {
		sym  int
		freq int64
	}
	var leaves []leaf
	for s, f := range freqs {
		if f > 0 {
			leaves = append(leaves, leaf{s, f})
		}
	}
	lengths := make([]uint8, len(freqs))
	if len(leaves) == 1 {
		lengths[leaves[0].sym] = 1
		return lengths
	}
	sort.Slice(leaves, func(i, j int) bool {
		if leaves[i].freq != leaves[j].freq {
			return leaves[i].freq < leaves[j].freq
		}
		return leaves[i].sym < leaves[j].sym
	})
	type item struct {
		weight int64
		leaves []int32
	}
	var prev []item
	for level := 0; level < maxLen; level++ {
		cur := make([]item, len(leaves))
		for i, lf := range leaves {
			cur[i] = item{weight: lf.freq, leaves: []int32{int32(i)}}
		}
		for i := 0; i+1 < len(prev); i += 2 {
			cur = append(cur, item{
				weight: prev[i].weight + prev[i+1].weight,
				leaves: append(append([]int32{}, prev[i].leaves...), prev[i+1].leaves...),
			})
		}
		sort.SliceStable(cur, func(i, j int) bool { return cur[i].weight < cur[j].weight })
		prev = cur
	}
	for _, it := range prev[:2*len(leaves)-2] {
		for _, li := range it.leaves {
			lengths[leaves[li].sym]++
		}
	}
	return lengths
}

func TestBuildLengthsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(300)
		maxLen := 1 + rng.Intn(MaxCodeLen)
		freqs := make([]int64, n)
		span := []int{2, 7, 1000, 1 << 30}[trial%4] // small spans force ties
		used := 0
		for i := range freqs {
			if rng.Intn(4) > 0 {
				freqs[i] = int64(1 + rng.Intn(span))
				used++
			}
		}
		if used == 0 || used > 1<<maxLen {
			continue
		}
		got, err := BuildLengths(freqs, maxLen)
		if err != nil {
			t.Fatalf("trial %d (n %d, maxLen %d): %v", trial, n, maxLen, err)
		}
		if want := buildLengthsOracle(freqs, maxLen); !bytes.Equal(got, want) {
			t.Fatalf("trial %d (n %d, maxLen %d):\n got %v\nwant %v", trial, n, maxLen, got, want)
		}
	}
}

// One allocation — the returned lengths — once the pooled scratch is warm.
func TestBuildLengthsAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	freqs := make([]int64, 278)
	for i := range freqs {
		freqs[i] = int64(rng.Intn(5000))
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := BuildLengths(freqs, DefaultCWL); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 && !race.Enabled {
		t.Errorf("BuildLengths made %v allocations, want ≤ 2", allocs)
	}
}

// huffmanCostRef computes the optimal (unlimited) Huffman total cost with a
// simple O(n^2) pairing, as an independent oracle.
func huffmanCostRef(freqs []int64) int64 {
	var ws []int64
	for _, f := range freqs {
		if f > 0 {
			ws = append(ws, f)
		}
	}
	if len(ws) < 2 {
		return int64(len(ws))
	}
	var cost int64
	for len(ws) > 1 {
		// find two smallest
		a, b := 0, 1
		if ws[b] < ws[a] {
			a, b = b, a
		}
		for i := 2; i < len(ws); i++ {
			if ws[i] < ws[a] {
				b = a
				a = i
			} else if ws[i] < ws[b] {
				b = i
			}
		}
		merged := ws[a] + ws[b]
		cost += merged
		// remove b then a (indices, larger first)
		if a < b {
			a, b = b, a
		}
		ws = append(ws[:a], ws[a+1:]...)
		ws = append(ws[:b], ws[b+1:]...)
		ws = append(ws, merged)
	}
	return cost
}

func BenchmarkBuildLengths256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	freqs := make([]int64, 256)
	for i := range freqs {
		freqs[i] = int64(rng.Intn(100000))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := BuildLengths(freqs, DefaultCWL); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	freqs := make([]int64, 256)
	for i := range freqs {
		freqs[i] = int64(1 + rng.Intn(1000))
	}
	enc, lengths, err := newTestEncoder(freqs, DefaultCWL)
	if err != nil {
		b.Fatal(err)
	}
	dec, _ := NewDecoder(lengths, DefaultCWL)
	w := bitio.NewWriter(1 << 16)
	const nsym = 1 << 14
	for i := 0; i < nsym; i++ {
		enc.Encode(w, rng.Intn(256))
	}
	data := w.Bytes()
	b.SetBytes(nsym)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := bitio.NewReaderBits(data, w.BitLen())
		for j := 0; j < nsym; j++ {
			if _, err := dec.Decode(r); err != nil {
				b.Fatal(err)
			}
		}
	}
}
