package huffman

import (
	"fmt"

	"gompresso/internal/bitio"
)

// Decoder is a single-lookup table decoder: the table has 2^tableBits
// entries, each mapping a window of upcoming stream bits directly to
// (symbol, codeLen). This mirrors the paper's on-chip decode tables
// (§III-B1): one lookup per symbol, no tree walking and thus no divergent
// branches on the GPU.
//
// Entries are packed as symbol<<8 | codeLen in a single uint32 slice, so the
// fast decode paths pay one load per symbol instead of two.
type Decoder struct {
	tableBits uint8
	table     []uint32 // indexed by the next tableBits bits of the stream
}

// EntryLen extracts the code length from a packed table entry; zero means the
// window does not start a valid code.
func EntryLen(e uint32) uint { return uint(e & 0xff) }

// EntrySym extracts the symbol from a packed table entry.
func EntrySym(e uint32) int { return int(e >> 8) }

// TableEntries reports the LUT size, 2^tableBits. The paper's shared-memory
// budget arithmetic (two tables of 2^CWL entries per data block) uses this.
func (d *Decoder) TableEntries() int { return 1 << d.tableBits }

// TableBytes reports the LUT size in bytes assuming 4-byte entries, matching
// the shared-memory footprint used for occupancy modeling.
func (d *Decoder) TableBytes() int { return d.TableEntries() * 4 }

// NewDecoder builds the LUT from a code-length array. tableBits must be ≥ the
// longest code length (Gompresso guarantees this by limiting CWL).
func NewDecoder(lengths []uint8, tableBits int) (*Decoder, error) {
	d := &Decoder{}
	if err := d.Init(lengths, tableBits); err != nil {
		return nil, err
	}
	return d, nil
}

// Init (re)builds the decoder in place, reusing the previously allocated
// table when it is large enough — the hook that lets decode paths keep
// per-block decoders in a sync.Pool with zero steady-state allocations.
func (d *Decoder) Init(lengths []uint8, tableBits int) error {
	table, err := FillTable(d.table, lengths, tableBits, 0, packDefault)
	if err != nil {
		return err
	}
	d.tableBits = uint8(tableBits)
	d.table = table
	return nil
}

func packDefault(sym int, codeLen uint8) uint32 {
	return uint32(sym)<<8 | uint32(codeLen)
}

// FillTable builds a 2^tableBits-entry LUT for a canonical code described by
// its code-length array, reusing table's storage when it is large enough
// (pass nil to allocate). Each used window is set to pack(symbol, codeLen);
// unused windows (possible only for the degenerate single-symbol code — a
// complete code covers every window) are set to invalid. pack must keep
// entries distinguishable from invalid; by convention the low bits carry
// codeLen, which is ≥ 1 for real codes. This is the shared kernel behind the
// generic Decoder and the fused fast-path tables, which pack extra per-symbol
// fields into the entry to save lookups in the hot loop.
func FillTable(table []uint32, lengths []uint8, tableBits int, invalid uint32, pack func(sym int, codeLen uint8) uint32) ([]uint32, error) {
	if err := ValidateLengths(lengths, tableBits); err != nil {
		return nil, err
	}
	n := 1 << tableBits
	if cap(table) < n {
		table = make([]uint32, n)
	} else {
		table = table[:n]
	}
	if invalid == 0 {
		clear(table)
	} else {
		for i := range table {
			table[i] = invalid
		}
	}
	// Canonical code assignment, inlined from CanonicalCodes so a rebuild
	// into pooled storage performs no allocations.
	var lenCount [MaxCodeLen + 1]int
	for _, l := range lengths {
		lenCount[l]++
	}
	lenCount[0] = 0
	var nextCode [MaxCodeLen + 2]uint32
	code := uint32(0)
	for l := 1; l <= tableBits; l++ {
		code = (code + uint32(lenCount[l-1])) << 1
		nextCode[l] = code
	}
	for s, l := range lengths {
		if l == 0 {
			continue
		}
		c := nextCode[l]
		nextCode[l]++
		if c >= 1<<l {
			return nil, fmt.Errorf("%w: canonical overflow at symbol %d", ErrBadLengths, s)
		}
		// The bit-reversed code is the value of the codeword as it appears in
		// the low bits of an LSB-first peek. Every table index whose low l
		// bits equal it decodes to s.
		rev := reverseBits(uint16(c), l)
		e := pack(s, l)
		step := 1 << l
		for idx := int(rev); idx < n; idx += step {
			table[idx] = e
		}
	}
	return table, nil
}

// Decode consumes one symbol from r.
func (d *Decoder) Decode(r *bitio.Reader) (int, error) {
	e := d.table[r.Peek(uint(d.tableBits))]
	l := EntryLen(e)
	if l == 0 {
		return 0, fmt.Errorf("huffman: invalid code at bit %d", r.BitsRead())
	}
	if err := r.Skip(l); err != nil {
		return 0, err
	}
	return EntrySym(e), nil
}
