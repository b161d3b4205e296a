package format

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/lz77"
	"gompresso/internal/race"
)

// byteDecoder is DecodeByteInto or a stand-in with its signature.
type byteDecoder func(dst, payload []byte, numSeqs int) error

// carefulOnly is the per-sequence loop run from the first sequence with no
// bulk phase in front of it: what DecodeByteInto was before it had one, and
// the authority on every verdict, error class and message.
func carefulOnly(dst, payload []byte, numSeqs int) error {
	return decodeByteCareful(dst, payload, numSeqs, 0, 0, 0)
}

// byteGuarded runs dec on a rawLen-byte region in the middle of a
// canary-filled buffer whose capacity runs on past the region — how a block's
// region sits between its neighbours in a shared output — and fails the test
// if a byte on either side of it changed.
func byteGuarded(t *testing.T, dec byteDecoder, payload []byte, numSeqs, rawLen int) ([]byte, error) {
	t.Helper()
	const guard = 96
	buf := bytes.Repeat([]byte{0xA5}, guard+rawLen+guard)
	dst := buf[guard : guard+rawLen]
	err := dec(dst, payload, numSeqs)
	for i := 0; i < guard; i++ {
		if buf[i] != 0xA5 || buf[guard+rawLen+i] != 0xA5 {
			t.Fatalf("decoder wrote outside dst, within %d bytes of it", guard)
		}
	}
	return dst, err
}

// checkByteDecode holds DecodeByteInto to the careful loop alone — same
// verdict, same error class, same message, same bytes — and to the oracle,
// which shares no loop with either: same verdict, same bytes. It reports
// whether the input decoded.
func checkByteDecode(t *testing.T, what string, payload []byte, numSeqs, rawLen int) bool {
	t.Helper()
	got, err := byteGuarded(t, DecodeByteInto, payload, numSeqs, rawLen)
	ref, rerr := byteGuarded(t, carefulOnly, payload, numSeqs, rawLen)
	if (err == nil) != (rerr == nil) || errors.Is(err, lz77.ErrCorrupt) != errors.Is(rerr, lz77.ErrCorrupt) ||
		errors.Is(err, ErrFormat) != errors.Is(rerr, ErrFormat) || (err != nil && err.Error() != rerr.Error()) {
		t.Fatalf("%s: DecodeByteInto: %v; careful loop alone: %v", what, err, rerr)
	}
	want, oerr := oracleDecodeBlock(FileHeader{Variant: VariantByte},
		&Block{RawLen: rawLen, NumSeqs: numSeqs, Payload: payload})
	if (err == nil) != (oerr == nil) {
		t.Fatalf("%s: DecodeByteInto: %v; oracle: %v", what, err, oerr)
	}
	if err == nil && (!bytes.Equal(got, ref) || !bytes.Equal(got, want)) {
		t.Fatalf("%s: decoded bytes differ (careful loop %v, oracle %v)", what, bytes.Equal(got, ref), bytes.Equal(got, want))
	}
	return err == nil
}

// encodeByteParsed parses src and encodes it as a Byte payload.
func encodeByteParsed(t testing.TB, src []byte, lz lz77.Options) ([]byte, int) {
	t.Helper()
	ts, err := lz77.Parse(src, lz)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := EncodeByte(ts)
	if err != nil {
		t.Fatal(err)
	}
	return payload, len(ts.Seqs)
}

// craftedStream is a token stream built by hand around one sequence, which
// starts at payload byte at.
type craftedStream struct {
	name string
	ts   *lz77.TokenStream
	at   int
}

// craftedByteStreams are built around the cases the bulk loop tells apart:
// extended literal and match lengths with every shape of extension, offsets on
// both sides of the 8-byte copy width and at the format's limit, a match-less
// sequence — each once deep inside a block, where the bulk loop decodes it, and
// once as the block's last sequence, where the literal run ends exactly at
// len(payload) or the match exactly at len(dst).
func craftedByteStreams(t testing.TB) []craftedStream {
	t.Helper()
	filler := datagen.Random(1<<17, 11)
	var streams []craftedStream
	add := func(name string, s lz77.Seq) {
		for _, last := range []bool{false, true} {
			ts := &lz77.TokenStream{}
			lits := filler
			push := func(s lz77.Seq) {
				ts.Seqs = append(ts.Seqs, s)
				ts.Literals = append(ts.Literals, lits[:s.LitLen]...)
				lits = lits[s.LitLen:]
				ts.RawLen += int(s.LitLen + s.MatchLen)
			}
			plain := func() {
				for i := uint32(0); i < 40; i++ {
					push(lz77.Seq{LitLen: i % 15, MatchLen: 4 + i%11, Offset: 8 + 3*i})
				}
			}
			// History for the sequence's offset, in literal runs of every
			// length up to an extended one, then plain sequences.
			for ts.RawLen < int(max(s.Offset, 300)) {
				push(lz77.Seq{LitLen: uint32(len(ts.Seqs) % 300)})
			}
			plain()
			prefix, err := EncodeByte(ts)
			if err != nil {
				t.Fatal(err)
			}
			push(s)
			if !last {
				plain()
				push(lz77.Seq{LitLen: 40}) // the tail: dst and payload run out together
			}
			streams = append(streams, craftedStream{fmt.Sprintf("%s/last=%v", name, last), ts, len(prefix)})
		}
	}
	for _, n := range []uint32{14, 15, 16, 15 + 254, 15 + 255, 15 + 256, 15 + 3*255, 15 + 3*255 + 7} {
		add(fmt.Sprintf("lit%d", n), lz77.Seq{LitLen: n, MatchLen: 9, Offset: 100})
		add(fmt.Sprintf("match%d", n), lz77.Seq{LitLen: 3, MatchLen: n, Offset: 100})
		add(fmt.Sprintf("both%d", n), lz77.Seq{LitLen: n, MatchLen: n, Offset: 9})
		add(fmt.Sprintf("lit%d-only", n), lz77.Seq{LitLen: n})
	}
	for off := uint32(1); off <= 16; off++ {
		add(fmt.Sprintf("off%d-short", off), lz77.Seq{LitLen: 2, MatchLen: 14, Offset: off})
		add(fmt.Sprintf("off%d-long", off), lz77.Seq{LitLen: 2, MatchLen: 70, Offset: off})
	}
	add("off65535-short", lz77.Seq{LitLen: 1, MatchLen: 14, Offset: MaxByteOffset})
	add("off65535-long", lz77.Seq{LitLen: 1, MatchLen: 300, Offset: MaxByteOffset})
	add("null", lz77.Seq{})
	return streams
}

// The bulk loop must decode exactly what the careful loop and the reference
// pipeline decode.
func TestDecodeByteIntoMatchesReference(t *testing.T) {
	const n = 64 << 10
	for name, src := range map[string][]byte{
		"wiki":    datagen.WikiXML(n, 1),
		"matrix":  datagen.MatrixMarket(n, 2),
		"nesting": datagen.Nesting(n, 4, 3),
		"zeros":   datagen.Zeros(n),
		"random":  datagen.Random(n, 4),
		"far":     append(datagen.Random(n-100, 5), datagen.Random(n-100, 5)[:100]...), // offset 65,436
	} {
		for _, lz := range []lz77.Options{{DE: lz77.DEStrict}, {}, {MaxMatch: 1 << 16, Window: 1 << 16}} {
			payload, numSeqs := encodeByteParsed(t, src, lz)
			if !checkByteDecode(t, name, payload, numSeqs, len(src)) {
				t.Fatalf("%s: a parsed block did not decode", name)
			}
			got, _ := byteGuarded(t, DecodeByteInto, payload, numSeqs, len(src))
			if !bytes.Equal(got, src) {
				t.Fatalf("%s: decoded bytes differ from the input", name)
			}
		}
	}
	for _, c := range craftedByteStreams(t) {
		payload, err := EncodeByte(c.ts)
		if err != nil {
			t.Fatal(err)
		}
		if !checkByteDecode(t, c.name, payload, len(c.ts.Seqs), c.ts.RawLen) {
			t.Fatalf("%s: a crafted stream did not decode", c.name)
		}
	}
}

// The bulk loop hands over to the careful loop once dst or the payload is
// inside its margin: every raw length around the output margin, and blocks
// whose whole payload is shorter than the input margin, decode to the oracle's
// bytes without touching a byte on either side of dst.
func TestDecodeByteIntoHandOff(t *testing.T) {
	var inputs [][]byte
	for n := 0; n <= 2*byteOutMargin+1; n++ {
		inputs = append(inputs,
			fastPathSource(n, int64(n)),
			datagen.Random(n, uint64(n)),   // all literals: the run ends on the margin
			datagen.WikiXML(4096+n, 1),     // the last match ends n bytes past a fixed point
			datagen.Zeros(n),               // near offsets up to the margin
			datagen.RepeatPhrase(n, "abc")) // and one that is not a power of two
	}
	inputs = append(inputs, datagen.Zeros(600), datagen.RepeatPhrase(600, "ab"))
	tailOnly := 0
	for _, src := range inputs {
		for _, lz := range []lz77.Options{{}, {MaxMatch: 1 << 16, Window: 1 << 16}} {
			payload, numSeqs := encodeByteParsed(t, src, lz)
			if len(payload) < byteInMargin && len(src) > byteOutMargin {
				tailOnly++
			}
			what := fmt.Sprintf("%d raw bytes, %d payload bytes", len(src), len(payload))
			if !checkByteDecode(t, what, payload, numSeqs, len(src)) {
				t.Fatalf("%s: did not decode", what)
			}
			if got, _ := byteGuarded(t, DecodeByteInto, payload, numSeqs, len(src)); !bytes.Equal(got, src) {
				t.Fatalf("%s: decoded bytes differ from the input", what)
			}
		}
	}
	if tailOnly < 3 {
		t.Fatalf("%d inputs have a payload inside the input margin, want ≥ 3", tailOnly)
	}
}

// A mutated block must get from the bulk loop exactly the verdict, error class
// and message the careful loop alone gives it, and on accept the oracle's
// bytes — never a panic, never a store outside dst: every prefix truncation
// and every single-bit flip of a 4 KiB block and of the crafted streams around
// their crafted sequence, a lying sequence count and a lying raw length; of a
// 64 KiB block, where the bulk loop has run for a while before it meets the
// damage, every cut and bit of the last 64 bytes and a sample of the rest.
func TestDecodeByteIntoTruncationsAndBitFlips(t *testing.T) {
	type block struct {
		name                  string
		payload               []byte
		numSeqs, rawLen       int
		from, to              int // mutations stay inside payload[from:to]
		cutStride, flipStride int
		denseTail             int
	}
	var blocks []block
	for _, n := range []int{4 << 10, 64 << 10} {
		payload, numSeqs := encodeByteParsed(t, datagen.Nesting(n, 4, 3), lz77.Options{DE: lz77.DEStrict})
		b := block{name: fmt.Sprintf("nesting-%d", n), payload: payload, numSeqs: numSeqs, rawLen: n,
			to: len(payload), cutStride: 1, flipStride: 1}
		if n > 4<<10 {
			b.cutStride, b.flipStride, b.denseTail = 17, 211, 64*8
		}
		blocks = append(blocks, b)
	}
	for _, c := range craftedByteStreams(t) {
		payload, err := EncodeByte(c.ts)
		if err != nil {
			t.Fatal(err)
		}
		blocks = append(blocks, block{name: c.name, payload: payload, numSeqs: len(c.ts.Seqs), rawLen: c.ts.RawLen,
			from: c.at - 32, to: min(c.at+64, len(payload)), cutStride: 1, flipStride: 1})
	}
	for _, b := range blocks {
		if race.Enabled || testing.Short() {
			b.cutStride *= 13
			b.flipStride *= 13
		}
		for cut := b.from; cut < b.to; cut++ {
			if cut%b.cutStride != 0 && cut < b.to-b.denseTail/8 {
				continue
			}
			checkByteDecode(t, fmt.Sprintf("%s cut at byte %d", b.name, cut), b.payload[:cut], b.numSeqs, b.rawLen)
		}
		flipped := bytes.Clone(b.payload)
		nbits := b.to * 8
		for bit := b.from * 8; bit < nbits; bit++ {
			if bit%b.flipStride != 0 && bit < nbits-b.denseTail {
				continue
			}
			flipped[bit>>3] ^= 1 << (bit & 7)
			checkByteDecode(t, fmt.Sprintf("%s bit %d flipped", b.name, bit), flipped, b.numSeqs, b.rawLen)
			flipped[bit>>3] ^= 1 << (bit & 7)
		}
		for _, d := range []int{-40, -1, 1, 40} {
			if checkByteDecode(t, fmt.Sprintf("%s with %+d sequences", b.name, d), b.payload, max(0, b.numSeqs+d), b.rawLen) ||
				checkByteDecode(t, fmt.Sprintf("%s into %+d bytes", b.name, d), b.payload, b.numSeqs, max(0, b.rawLen+d)) {
				t.Fatalf("%s: a lying count or length decoded", b.name)
			}
		}
	}
}

// core.decompressHost and ReaderAt decode neighbouring blocks of one output
// slice at the same time. Under -race a store past either region's length is
// a reported race with the neighbour's stores there; without it, it is wrong
// bytes.
func TestDecodeByteIntoAdjacentRegions(t *testing.T) {
	const n = 32 << 10
	srcs := [2][]byte{datagen.WikiXML(n, 7), datagen.MatrixMarket(n, 8)}
	var payloads [2][]byte
	var numSeqs [2]int
	for i, src := range srcs {
		payloads[i], numSeqs[i] = encodeByteParsed(t, src, lz77.Options{DE: lz77.DEStrict})
	}
	out := make([]byte, 2*n+64)
	for round := 0; round < 20; round++ {
		var wg sync.WaitGroup
		for i := range srcs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if err := DecodeByteInto(out[i*n:(i+1)*n], payloads[i], numSeqs[i]); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
		if !bytes.Equal(out[:n], srcs[0]) || !bytes.Equal(out[n:2*n], srcs[1]) {
			t.Fatalf("round %d: concurrently decoded neighbours differ from their inputs", round)
		}
	}
}
