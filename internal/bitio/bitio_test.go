package bitio

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWriteReadRoundtrip(t *testing.T) {
	w := NewWriter(16)
	vals := []struct {
		v uint64
		n uint
	}{
		{0x1, 1}, {0x0, 1}, {0x5, 3}, {0xff, 8}, {0x1234, 16},
		{0xabcdef, 24}, {0x7fffffff, 31}, {0, 0}, {1, 1},
	}
	for _, x := range vals {
		w.WriteBits(x.v, x.n)
	}
	r := NewReaderBits(w.Bytes(), w.BitLen())
	for i, x := range vals {
		got, err := r.ReadBits(x.n)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		want := x.v & ((1 << x.n) - 1)
		if got != want {
			t.Fatalf("read %d: got %#x want %#x", i, got, want)
		}
	}
}

func TestLSBFirstLayout(t *testing.T) {
	// DEFLATE convention: first bit written is bit 0 of byte 0.
	w := NewWriter(4)
	w.WriteBits(1, 1)     // bit 0
	w.WriteBits(0, 1)     // bit 1
	w.WriteBits(0b11, 2)  // bits 2-3
	w.WriteBits(0b101, 3) // bits 4-6
	b := w.Bytes()
	if len(b) != 1 {
		t.Fatalf("len=%d", len(b))
	}
	want := byte(1 | 0<<1 | 0b11<<2 | 0b101<<4)
	if b[0] != want {
		t.Fatalf("byte layout got %08b want %08b", b[0], want)
	}
}

func TestPeekSkip(t *testing.T) {
	w := NewWriter(8)
	w.WriteBits(0xdead, 16)
	w.WriteBits(0xbe, 8)
	r := NewReader(w.Bytes())
	if got := r.Peek(16); got != 0xdead {
		t.Fatalf("peek got %#x", got)
	}
	if got := r.Peek(8); got != 0xad {
		t.Fatalf("peek8 got %#x", got)
	}
	if err := r.Skip(16); err != nil {
		t.Fatal(err)
	}
	got, err := r.ReadBits(8)
	if err != nil || got != 0xbe {
		t.Fatalf("got %#x err %v", got, err)
	}
}

func TestPeekPastEndZeroFilled(t *testing.T) {
	w := NewWriter(2)
	w.WriteBits(0x3, 2)
	r := NewReaderBits(w.Bytes(), 2)
	if got := r.Peek(10); got != 0x3 {
		t.Fatalf("peek past end got %#x want 0x3", got)
	}
}

func TestOverrun(t *testing.T) {
	r := NewReader([]byte{0xff})
	if _, err := r.ReadBits(8); err != nil {
		t.Fatal(err)
	}
	if _, err := r.ReadBits(1); err != ErrOverrun {
		t.Fatalf("want ErrOverrun, got %v", err)
	}
	r2 := NewReaderBits([]byte{0xff}, 3)
	if _, err := r2.ReadBits(4); err != ErrOverrun {
		t.Fatalf("want ErrOverrun for limited reader, got %v", err)
	}
}

func TestAlignByte(t *testing.T) {
	w := NewWriter(4)
	w.WriteBits(1, 3)
	w.AlignByte()
	if w.BitLen() != 8 {
		t.Fatalf("bitlen=%d", w.BitLen())
	}
	w.WriteBits(0xab, 8)
	b := w.Bytes()
	if b[1] != 0xab {
		t.Fatalf("second byte %#x", b[1])
	}
}

// Reset re-points a reader mid-stream: buffered bits of the old slice must
// not leak into reads of the new one.
func TestReset(t *testing.T) {
	r := NewReader([]byte{0xff, 0xff})
	if v, err := r.ReadBits(3); err != nil || v != 7 {
		t.Fatalf("before reset got %v err %v", v, err)
	}
	r.Reset([]byte{0x05})
	if r.BitsRead() != 0 {
		t.Fatalf("reset kept %d bits read", r.BitsRead())
	}
	if v, err := r.ReadBits(8); err != nil || v != 0x05 {
		t.Fatalf("after reset got %#x err %v", v, err)
	}
	if _, err := r.ReadBits(1); err != ErrOverrun {
		t.Fatalf("read past the new slice: err %v", err)
	}
}

// Property: any sequence of (value,width) writes reads back identically.
func TestQuickRoundtrip(t *testing.T) {
	f := func(seed int64, count uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(count%64) + 1
		type item struct {
			v uint64
			n uint
		}
		items := make([]item, n)
		w := NewWriter(n)
		for i := range items {
			width := uint(rng.Intn(33))
			v := rng.Uint64()
			items[i] = item{v & ((1 << width) - 1), width}
			w.WriteBits(v, width)
		}
		r := NewReaderBits(w.Bytes(), w.BitLen())
		for _, it := range items {
			got, err := r.ReadBits(it.n)
			if err != nil || got != it.v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving Peek/Skip with ReadBits is equivalent to ReadBits.
func TestQuickPeekSkipEquiv(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewWriter(64)
		var widths []uint
		var vals []uint64
		for i := 0; i < 40; i++ {
			width := uint(rng.Intn(17))
			v := rng.Uint64() & ((1 << width) - 1)
			w.WriteBits(v, width)
			widths = append(widths, width)
			vals = append(vals, v)
		}
		r := NewReaderBits(w.Bytes(), w.BitLen())
		for i, width := range widths {
			if rng.Intn(2) == 0 {
				got := r.Peek(width)
				if got != vals[i] {
					return false
				}
				if err := r.Skip(width); err != nil {
					return false
				}
			} else {
				got, err := r.ReadBits(width)
				if err != nil || got != vals[i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriteBits(b *testing.B) {
	w := NewWriter(1 << 16)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		if w.BitLen() > 1<<18 {
			w = NewWriter(1 << 16)
		}
		w.WriteBits(uint64(i), 11)
	}
}

func BenchmarkReadBits(b *testing.B) {
	w := NewWriter(1 << 16)
	for i := 0; i < 1<<14; i++ {
		w.WriteBits(uint64(i), 11)
	}
	data := w.Bytes()
	r := NewReader(data)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		if _, err := r.ReadBits(11); err != nil {
			r.Reset(data)
		}
	}
}
