package deflate

import (
	"math/rand"
	"testing"
)

// An empty tree's table must be empty whatever its storage held before: the
// tables a block leaves behind are the next block's store.
func TestEmptyTreeTableNotShared(t *testing.T) {
	empty := make([]uint8, maxDist)
	one := make([]uint8, maxDist)
	one[0] = 1
	var tab [distEnough]uint32
	if !buildTab(tab[:], distPrim, one, distTmpl[:]) || !buildTab(tab[:], distPrim, empty, distTmpl[:]) {
		t.Fatal("degenerate distance codes rejected")
	}
	for w, e := range tab[:1<<distPrim] {
		if e != eExc {
			t.Fatalf("empty tree decodes window %d to entry %#x", w, e)
		}
	}
}

// tabKind is one of the three alphabets buildTab serves.
type tabKind struct {
	name   string
	prim   int
	enough int
	maxLen int
	tmpl   []uint32
	// want is the entry a symbol must decode to, less its code length.
	want func(sym int) (flags, payload uint32, extra int)
}

var tabKinds = []tabKind{
	{"litlen", litPrim, litEnough, 15, litTmpl[:], func(s int) (uint32, uint32, int) {
		switch {
		case s < endBlock:
			return eLit, uint32(s), 0
		case s == endBlock:
			return eExc, 0, 0
		case s < maxLitLen:
			return 0, uint32(lengthBase[s-257]), int(lengthExtra[s-257])
		}
		return eExc, 1, 0
	}},
	{"dist", distPrim, distEnough, 15, distTmpl[:], func(s int) (uint32, uint32, int) {
		if s < maxDist {
			return 0, distBase[s], int(distExtra[s])
		}
		return eExc, 1, 0
	}},
	{"codelen", clPrim, clEnough, 7, clTmpl[:], func(s int) (uint32, uint32, int) { return 0, uint32(s), 0 }},
}

// walker decodes canonical codes the slow way, one bit at a time over the
// per-length counts (the walk of zlib's puff.c).
type walker struct {
	count  [16]int
	sorted []int // symbols by code length, then value
}

func newWalker(lengths []uint8) *walker {
	var k walker
	for _, l := range lengths {
		k.count[l]++
	}
	for l := uint8(1); l < 16; l++ {
		for s, sl := range lengths {
			if sl == l {
				k.sorted = append(k.sorted, s)
			}
		}
	}
	return &k
}

// decode returns the symbol and length of the code that starts the LSB-first
// window w, or ok false when no code of the tree starts it.
func (k *walker) decode(w uint32) (sym, length int, ok bool) {
	code, first, index := 0, 0, 0
	for l := 1; l < 16; l++ {
		code |= int(w & 1)
		w >>= 1
		if code-k.count[l] < first {
			return k.sorted[index+code-first], l, true
		}
		index += k.count[l]
		first = (first + k.count[l]) << 1
		code <<= 1
	}
	return 0, 0, false
}

// checkTab holds a built table to the bit-by-bit walk on every 15-bit window:
// same symbol, same length, the entry that symbol's template prescribes, and
// the bare invalid entry wherever no code starts. It returns the subtable
// widths the table uses.
func checkTab(t *testing.T, k tabKind, name string, lengths []uint8, tab []uint32) (widths uint) {
	t.Helper()
	for _, e := range tab[:1<<k.prim] {
		if e&eSub != 0 {
			widths |= 1 << (e >> 8 & 15)
		}
	}
	walk := newWalker(lengths)
	for w := uint32(0); w < 1<<15; w++ {
		e := lookup(tab, uint(k.prim), uint64(w))
		sym, l, ok := walk.decode(w)
		if !ok {
			if e != eExc {
				t.Fatalf("%s %s: window %#x starts no code but decodes to entry %#x", k.name, name, w, e)
			}
			continue
		}
		flags, payload, extra := k.want(sym)
		if want := flags | payload<<16 | uint32(l)<<8 | uint32(l+extra); e != want {
			t.Fatalf("%s %s: window %#x is symbol %d, length %d: entry %#x, want %#x", k.name, name, w, sym, l, e, want)
		}
	}
	return widths
}

// randomCode draws a complete code over at most n symbols with no code longer
// than maxLen, by splitting leaves; deep biases the splits toward the deepest
// leaf so long codes, and with them subtables of every width, come up.
func randomCode(rng *rand.Rand, n, maxLen int, deep bool) []uint8 {
	leaves := []uint8{1, 1}
	for target := 2 + rng.Intn(n-1); len(leaves) < target; {
		i := rng.Intn(len(leaves))
		if deep && rng.Intn(4) != 0 {
			i = len(leaves) - 1
		}
		if int(leaves[i]) == maxLen {
			if deep {
				break
			}
			continue
		}
		leaves[i]++
		leaves = append(leaves, leaves[i])
	}
	lengths := make([]uint8, n)
	for i, s := range rng.Perm(n)[:len(leaves)] {
		lengths[s] = leaves[i]
	}
	return lengths
}

func TestBuildTabMatchesCanonicalWalk(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, k := range tabKinds {
		n := len(k.tmpl)
		tab := make([]uint32, k.enough) // exactly the bound: a code that needs more fails to build
		for i := range tab {
			tab[i] = 0xdeadbeef
		}
		build := func(name string, lengths []uint8, valid bool) uint {
			t.Helper()
			if ok := buildTab(tab, k.prim, lengths, k.tmpl); ok != valid {
				t.Fatalf("%s %s: buildTab = %v, want %v (lengths %v)", k.name, name, ok, valid, lengths)
			}
			if !valid {
				return 0
			}
			return checkTab(t, k, name, lengths, tab)
		}
		one := func(sym int, l uint8) []uint8 {
			lengths := make([]uint8, n)
			lengths[sym] = l
			return lengths
		}
		build("empty", make([]uint8, n), true)
		build("single length-1 code", one(n-1, 1), true)
		build("single length-2 code", one(0, 2), false)
		build("single longest code", one(3, uint8(k.maxLen)), false)
		two := one(0, 1)
		two[1] = 2
		build("incomplete", two, false)
		two[2], two[3] = 2, 2
		build("oversubscribed", two, false)

		// The longest chain there is: one code of each length and two of the
		// longest, so one prefix carries the widest subtable.
		chain := make([]uint8, n)
		for i := 0; i < k.maxLen; i++ {
			chain[n-1-i] = uint8(i + 1)
		}
		chain[n-1-k.maxLen] = uint8(k.maxLen)
		widths := build("chain", chain, true)
		for i := 0; i < 120; i++ {
			widths |= build("random", randomCode(rng, n, k.maxLen, i%2 == 0), true)
		}
		for sub := 1; sub <= k.maxLen-k.prim; sub++ {
			if widths&(1<<sub) == 0 {
				t.Errorf("%s: no code built a %d-bit subtable", k.name, sub)
			}
		}
	}
	// The fixed trees, which alone give codes to the forbidden symbols.
	f := fixed()
	lens := make([]uint8, 288+32)
	for i := range lens {
		switch {
		case i < 144, i >= 280 && i < 288:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 5
		}
	}
	checkTab(t, tabKinds[0], "fixed", lens[:288], f.lit[:])
	checkTab(t, tabKinds[1], "fixed", lens[288:], f.dist[:])
}
