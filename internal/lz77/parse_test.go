package lz77

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/race"
)

func sameStream(a, b *TokenStream) bool {
	return a.RawLen == b.RawLen && bytes.Equal(a.Literals, b.Literals) && slices.Equal(a.Seqs, b.Seqs)
}

// The insertion-cursor parser must emit the oracle's tokens exactly: on the
// benchmark's three families, in every DE mode, for both hash widths, with
// the single-entry matcher, and with a window that is not a power of two on
// blocks many windows long, so the prev ring wraps and is reused — one Parser
// serves every case, as a worker's does, so stale ring contents and a
// changing ring size are covered too.
func TestParseMatchesOracle(t *testing.T) {
	const n = 160 << 10
	inputs := map[string][]byte{
		"wiki":    datagen.WikiXML(n, 21),
		"matrix":  datagen.MatrixMarket(n, 22),
		"nesting": datagen.Nesting(n, 4, 23),
		"phrase":  datagen.RepeatPhrase(20<<10, "the quick brown fox jumps over the lazy dog. "),
		"zeros":   datagen.Zeros(20 << 10),
		"random":  datagen.Random(20<<10, 24),
		"short":   []byte("abcabcabcabc"),
	}
	var p Parser
	for name, src := range inputs {
		for _, de := range []DEMode{DEOff, DEStrict, DELit} {
			for _, minMatch := range []int{3, 4} {
				for _, o := range []Options{{}, {Window: 5000}, {Window: 100, MaxChain: 4}, {Staleness: DefaultStaleness}} {
					o.DE, o.MinMatch = de, minMatch
					want := oracleParse(src, o)
					got, err := p.Parse(src, o)
					if err != nil {
						t.Fatal(err)
					}
					if !sameStream(got, want) {
						t.Fatalf("%s %+v: Parser differs from oracle (%d vs %d seqs)", name, o, len(got.Seqs), len(want.Seqs))
					}
					if got, err = Parse(src, o); err != nil || !sameStream(got, want) {
						t.Fatalf("%s %+v: Parse differs from oracle (err %v)", name, o, err)
					}
				}
			}
		}
	}
}

// A chain of identical hashes used to exhaust a walk cap at every position
// under the DE rule, so a block of zeros came out as literals. Deferred
// insertion has no candidates to skip; this pins the outcome.
func TestDegenerateChainsStillMatch(t *testing.T) {
	const n = 256 << 10
	for name, src := range map[string][]byte{
		"zeros":  datagen.Zeros(n),
		"phrase": datagen.RepeatPhrase(n, "the quick brown fox jumps over the lazy dog. "),
	} {
		greedy, err := Parse(src, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range []DEMode{DEOff, DEStrict, DELit} {
			ts := roundtrip(t, name, src, Options{DE: de})
			if de != DEOff {
				if err := CheckDE(ts, DefaultGroupSize); err != nil {
					t.Errorf("%s %v: %v", name, de, err)
				}
			}
			if len(ts.Literals) > 16<<10 {
				t.Errorf("%s %v: %d literal bytes, want ≤ 16 KiB", name, de, len(ts.Literals))
			}
			if len(ts.Seqs) > 2*len(greedy.Seqs) {
				t.Errorf("%s %v: %d sequences, more than twice the unrestricted parse's %d", name, de, len(ts.Seqs), len(greedy.Seqs))
			}
		}
	}
}

// fuzzOptions spreads one byte of fuzz input over the parser's options.
func fuzzOptions(bits uint8) Options {
	o := Options{
		DE:       DEMode(bits % 3),
		MinMatch: 3 + int(bits>>2&1),
		Window:   []int{16, 100, 5000, DefaultWindow}[bits>>3&3],
	}
	if bits&0x20 != 0 {
		o.Staleness = 64
	}
	if bits&0x40 != 0 {
		o.MaxChain, o.GroupSize = 2, 3
	}
	if bits&0x80 != 0 {
		o.MaxMatch, o.MaxLitRun = 9, 5
	}
	return o
}

func FuzzParse(f *testing.F) {
	for i, src := range [][]byte{
		nil,
		[]byte("abc"),
		datagen.WikiXML(3<<10, 1),
		datagen.MatrixMarket(3<<10, 2),
		datagen.Nesting(3<<10, 4, 3),
		datagen.Zeros(2 << 10),
		datagen.RepeatPhrase(2<<10, "abcdefg"),
		datagen.Random(1<<10, 4),
	} {
		for _, bits := range []uint8{0, 1, 2, 5, 0x19, 0x22, 0x4a, 0x91, 0xff} {
			f.Add(src, bits+uint8(i))
		}
	}
	f.Fuzz(func(t *testing.T, src []byte, bits uint8) {
		if len(src) > 1<<20 {
			t.Skip("input above the fuzz bound")
		}
		o := fuzzOptions(bits)
		ts, err := Parse(src, o)
		if err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		if err := ts.Validate(); err != nil {
			t.Fatalf("%+v: %v", o, err)
		}
		got, err := ts.Decompress(nil)
		if err != nil || !bytes.Equal(got, src) {
			t.Fatalf("%+v: roundtrip failed (err %v)", o, err)
		}
		if o.DE != DEOff {
			if err := CheckDE(ts, o.withDefaults().GroupSize); err != nil {
				t.Fatalf("%+v: %v", o, err)
			}
		}
		if want := oracleParse(src, o); !sameStream(ts, want) {
			t.Fatalf("%+v: differs from oracle (%d vs %d seqs)", o, len(ts.Seqs), len(want.Seqs))
		}
	})
}

// Public Parse hands back a caller-owned stream — the struct and its two
// exactly-sized slices — and takes everything else from the pool.
func TestParseAllocs(t *testing.T) {
	src := datagen.WikiXML(64<<10, 5)
	for _, de := range []DEMode{DEOff, DEStrict} {
		o := Options{DE: de}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := Parse(src, o); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 4 && !race.Enabled {
			t.Errorf("%v: Parse made %v allocations per block, want ≤ 4", de, allocs)
		}
	}
}

func BenchmarkParseFamilies(b *testing.B) {
	const n = 256 << 10
	for _, in := range []struct {
		name string
		src  []byte
	}{
		{"wiki", datagen.WikiXML(n, 1)},
		{"matrix", datagen.MatrixMarket(n, 2)},
		{"nesting", datagen.Nesting(n, 4, 3)},
		{"zeros", datagen.Zeros(n)},
	} {
		for _, de := range []DEMode{DEOff, DEStrict} {
			b.Run(fmt.Sprintf("%s/%v", in.name, de), func(b *testing.B) {
				b.SetBytes(n)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Parse(in.src, Options{DE: de}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
