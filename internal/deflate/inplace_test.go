package deflate

import (
	"bytes"
	"compress/flate"
	"compress/zlib"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"runtime"
	"runtime/debug"
	"strconv"
	"testing"

	"gompresso/internal/datagen"
	"gompresso/internal/parallel"
	"gompresso/internal/race"
)

// outcome is everything a consumer can observe of one decode.
type outcome struct {
	out   []byte
	err   error
	stats Stats
}

// oneShot decodes through ReadAll, the entry point under Decompress and the
// root package's foreign one-shot path.
func oneShot(t *testing.T, data []byte, form Format, opt Options) outcome {
	t.Helper()
	r, err := NewReaderBytes(nil, data, form, opt)
	if err != nil {
		return outcome{err: err}
	}
	defer r.Close()
	out, err := r.ReadAll()
	return outcome{out, err, r.Stats()}
}

// streamed decodes through WriteTo over the sliding buffer.
func streamed(t *testing.T, data []byte, form Format, opt Options) outcome {
	t.Helper()
	r, err := NewReaderBytes(nil, data, form, opt)
	if err != nil {
		return outcome{err: err}
	}
	defer r.Close()
	var buf bytes.Buffer
	_, err = r.WriteTo(&buf)
	return outcome{buf.Bytes(), err, r.Stats()}
}

// sameOutcome asserts two decodes served the same bytes and ended the same
// way: both clean, or both with a typed *Error of one kind at one offset.
func sameOutcome(t *testing.T, name string, got, want outcome) {
	t.Helper()
	if !bytes.Equal(got.out, want.out) {
		t.Fatalf("%s: served %d bytes, want %d", name, len(got.out), len(want.out))
	}
	if (got.err == nil) != (want.err == nil) {
		t.Fatalf("%s: error %v, want %v", name, got.err, want.err)
	}
	if want.err == nil {
		return
	}
	var ge, we *Error
	if !errors.As(want.err, &we) || !errors.As(got.err, &ge) {
		t.Fatalf("%s: untyped error: got %v, want %v", name, got.err, want.err)
	}
	if ge.Kind != we.Kind || ge.Off != we.Off {
		t.Fatalf("%s: error %v, want %v", name, got.err, want.err)
	}
}

// canSpeculate reports whether Workers > 1 really starts the pipeline here
// (it degrades to the sequential engine on a one-CPU pool).
func canSpeculate() bool { return parallel.Workers(2, 2) > 1 }

// withISIZE returns gz with its trailing ISIZE field replaced.
func withISIZE(gz []byte, isize uint32) []byte {
	mut := append([]byte(nil), gz...)
	binary.LittleEndian.PutUint32(mut[len(mut)-4:], isize)
	return mut
}

// checkStats asserts what holds of the speculation counters after any
// decode: every output byte took exactly one route, and the serving goroutine
// can only have waited for a chunk it went on to judge.
func checkStats(t *testing.T, name string, s Stats, served int) {
	t.Helper()
	if s.BytesSpliced+s.BytesSeq != int64(served) {
		t.Fatalf("%s: stats %+v do not account for the %d bytes served", name, s, served)
	}
	if s.ChunksWaited > s.ChunksSpliced+s.ChunksFailed+s.ChunksRejected {
		t.Fatalf("%s: stats %+v: waited for more chunks than were judged", name, s)
	}
}

// Which chunks the scanner submits depends on the stream alone, so on a clean
// stdlib stream — every candidate a real block boundary, announced long
// before the engine gets there — the counters can be pinned: no chunk is
// stale, failed or rejected, the spliced share of the output is what the
// span formula leaves the speculators, and the sequential configuration
// never sees a chunk.
func TestStats(t *testing.T) {
	raw := datagen.WikiXML(8<<20, 1)
	gz := stdGzip(t, raw)
	for _, run := range []func(*testing.T, []byte, Format, Options) outcome{oneShot, streamed} {
		seq := run(t, gz, FormatGzip, Options{Workers: 1})
		if seq.err != nil || !bytes.Equal(seq.out, raw) {
			t.Fatalf("W=1: %d bytes, %v", len(seq.out), seq.err)
		}
		if want := (Stats{BytesSeq: int64(len(raw))}); seq.stats != want {
			t.Fatalf("W=1 stats %+v, want %+v", seq.stats, want)
		}
		for _, w := range []int{2, 4} {
			// normalize counts the workers the pool really has, and the
			// prediction follows it: W=4 on two CPUs is W=2.
			opt := Options{Workers: w}.normalize()
			if opt.Workers == 1 {
				continue
			}
			name := "W=" + strconv.Itoa(w)
			par := run(t, gz, FormatGzip, Options{Workers: w})
			if par.err != nil || !bytes.Equal(par.out, raw) {
				t.Fatalf("%s: %d bytes, %v", name, len(par.out), par.err)
			}
			s := par.stats
			checkStats(t, name, s, len(raw))
			if s.ChunksStale != 0 || s.ChunksFailed != 0 || s.ChunksRejected != 0 || s.ChunksSpliced == 0 {
				t.Fatalf("%s stats %+v: want splices only", name, s)
			}
			// A chunk runs on to the next block boundary and the stream
			// ends mid-cycle: a quarter either way covers both.
			want := float64(opt.ChunkSize) / float64(opt.ChunkSize+opt.span())
			if share := float64(s.BytesSpliced) / float64(len(raw)); share < 0.75*want || share > 1.25*want {
				t.Fatalf("%s stats %+v: %.0f%% of the output spliced, want about %.0f%%", name, s, 100*share, 100*want)
			}
		}
	}
}

// ReadAll sizes its one allocation from the gzip ISIZE trailer. A trailer
// that lies must cost nothing but the error the streaming path reports too.
func TestReadAllSizeHint(t *testing.T) {
	raw := datagen.WikiXML(300<<10, 7)
	gz := stdGzip(t, raw)
	isizeOff := int64(len(gz) - 4)
	hint := func(data []byte, form Format) int {
		r, err := NewReaderBytes(nil, data, form, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		return r.sizeHint()
	}

	t.Run("honest", func(t *testing.T) {
		if h := hint(gz, FormatGzip); h != len(raw) {
			t.Fatalf("size hint %d, want %d", h, len(raw))
		}
		got := oneShot(t, gz, FormatGzip, Options{Workers: 1})
		if got.err != nil || !bytes.Equal(got.out, raw) {
			t.Fatalf("%d bytes, %v", len(got.out), got.err)
		}
		// One allocation, never regrown: the hint plus the engine's slack.
		if c := cap(got.out); c != len(raw)+runSlack+1 {
			t.Fatalf("output capacity %d for %d bytes", c, len(raw))
		}
	})
	for _, tc := range []struct {
		name  string
		isize uint32
		hint  int
	}{
		// Too small: the buffer grows geometrically past the hint.
		{"smaller", 1000, 1000},
		// Too large but something a stream this long could expand to: used,
		// and the returned slice still has the real length.
		{"larger", uint32(len(raw)) + 1<<20, len(raw) + 1<<20},
		// Beyond hintRatio: ignored, nothing reserved for it.
		{"absurd", 0xfffffff0, len(gz)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mut := withISIZE(gz, tc.isize)
			if h := hint(mut, FormatGzip); h != tc.hint {
				t.Fatalf("size hint %d, want %d", h, tc.hint)
			}
			for _, w := range []int{1, 2} {
				opt := Options{Workers: w, ChunkSize: minChunkSize}
				got := oneShot(t, mut, FormatGzip, opt)
				wantErr(t, tc.name, got.err, ErrChecksum, isizeOff)
				if !bytes.Equal(got.out, raw) {
					t.Fatalf("W=%d: served %d bytes, want all %d", w, len(got.out), len(raw))
				}
				sameOutcome(t, tc.name, got, streamed(t, mut, FormatGzip, opt))
				if _, err := Decompress(mut, FormatGzip, opt); err == nil {
					t.Fatal("Decompress ignored the ISIZE mismatch")
				}
			}
		})
	}

	t.Run("multi-member", func(t *testing.T) {
		// The trailer describes the last member only; the hint undershoots
		// and the buffer grows.
		tail := stdGzip(t, raw[:100])
		multi := append(append([]byte(nil), gz...), tail...)
		if h := hint(multi, FormatGzip); h != 100 {
			t.Fatalf("size hint %d, want 100", h)
		}
		want := append(append([]byte(nil), raw...), raw[:100]...)
		decodeMatrix(t, "multi-member", multi, want, FormatGzip)
	})
	t.Run("empty-member", func(t *testing.T) {
		empty := stdGzip(t, nil)
		decodeMatrix(t, "empty", empty, []byte{}, FormatGzip)
		decodeMatrix(t, "empty-then-data", append(append([]byte(nil), empty...), gz...), raw, FormatGzip)
		decodeMatrix(t, "data-then-empty", append(append([]byte(nil), gz...), empty...), raw, FormatGzip)
	})
	t.Run("no-trailer", func(t *testing.T) {
		// zlib ends in an Adler-32 and raw deflate in nothing: no hint.
		var zl, df bytes.Buffer
		zw := zlib.NewWriter(&zl)
		zw.Write(raw)
		zw.Close()
		fw, _ := flate.NewWriter(&df, flate.DefaultCompression)
		fw.Write(raw)
		fw.Close()
		for form, data := range map[Format][]byte{FormatZlib: zl.Bytes(), FormatRaw: df.Bytes()} {
			if h := hint(data, form); h != len(data) {
				t.Fatalf("%v: size hint %d, want the input length %d", form, h, len(data))
			}
			decodeMatrix(t, form.String(), data, raw, form)
		}
	})
	t.Run("after-read", func(t *testing.T) {
		r, err := NewReaderBytes(nil, gz, FormatGzip, Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		if _, err := r.Read(make([]byte, 10)); err != nil {
			t.Fatal(err)
		}
		if _, err := r.ReadAll(); err == nil {
			t.Fatal("ReadAll succeeded on a Reader already read from")
		}
	})
}

// A trailer claiming more than hintRatio times the input is not believed, so
// what a lie can make ReadAll allocate is bounded by what the stream really
// holds — whether the claim is the field's maximum or just what DEFLATE's own
// 1,032:1 ceiling allows a stream of this length (the rule before PR 18, under
// which a 6 MB file claiming 4 GiB cost 4 GiB of zeroed memory before failing).
func TestReadAllLyingSizeHint(t *testing.T) {
	raw := datagen.WikiXML(300<<10, 7)
	gz := stdGzip(t, raw)
	for name, isize := range map[string]uint32{"4 GiB": 0xffffffff, "1000x": uint32(1000 * len(gz))} {
		mut := withISIZE(gz, isize)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := oneShot(t, mut, FormatGzip, Options{Workers: 1})
		runtime.ReadMemStats(&after)
		wantErr(t, name, got.err, ErrChecksum, int64(len(gz)-4))
		if !bytes.Equal(got.out, raw) {
			t.Fatalf("%s: served %d bytes, want all %d", name, len(got.out), len(raw))
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*uint64(len(raw)) {
			t.Errorf("%s: decoding %d bytes allocated %d", name, len(raw), grew)
		}
	}
}

// A stream that really does expand beyond hintRatio starts from its compressed
// size and grows into its output, at every worker count.
func TestReadAllGrowsPastSizeHint(t *testing.T) {
	raw := make([]byte, 4<<20)
	gz := stdGzip(t, raw)
	if len(raw) < 1000*len(gz) {
		t.Fatalf("%d zeros compress to %d bytes: not 1000:1", len(raw), len(gz))
	}
	r, err := NewReaderBytes(nil, gz, FormatGzip, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if h := r.sizeHint(); h != len(gz) {
		t.Fatalf("size hint %d for a %d-byte stream of %d zeros, want the input length", h, len(gz), len(raw))
	}
	decodeMatrix(t, "zeros", gz, raw, FormatGzip)
}

// The one-shot and streaming entry points run one primitive over different
// buffers, so over the conformance corpus — intact, truncated and corrupted
// — they must serve the same bytes and fail with the same kind at the same
// offset, and so must every worker count.
func TestOneShotStreamingParity(t *testing.T) {
	for name, full := range corpusFiles(t) {
		variants := map[string][]byte{"intact": full}
		for _, cut := range []int{len(full) / 3, len(full) / 2, len(full) - 8, len(full) - 3} {
			if cut > 0 {
				variants["cut@"+strconv.Itoa(cut)] = full[:cut]
			}
		}
		for _, at := range []int{len(full) / 3, len(full) / 2, len(full) - 6, len(full) - 2} {
			if at >= 0 {
				mut := append([]byte(nil), full...)
				mut[at] ^= 0x5a
				variants["flip@"+strconv.Itoa(at)] = mut
			}
		}
		for vname, data := range variants {
			base := streamed(t, data, FormatGzip, Options{Workers: 1})
			for _, w := range []int{1, 2, 4} {
				opt := Options{Workers: w, ChunkSize: minChunkSize}
				label := name + "/" + vname + "/W" + strconv.Itoa(w)
				sameOutcome(t, label+"/stream", streamed(t, data, FormatGzip, opt), base)
				sameOutcome(t, label+"/oneshot", oneShot(t, data, FormatGzip, opt), base)
			}
		}
	}
}

// dictMember builds a gzip member no decoder can finish: its deflate stream
// was written against a preset dictionary, and its tail repeats the end of
// that dictionary from a position too early to reach it — back-references
// land before the member's first byte. The head shares no byte with the
// dictionary and decodes cleanly. The encoder ends a block every 16,384
// tokens, so the head's 20 KiB of matchless noise make one block of 12 KiB —
// longer than a span and a chunk at minChunkSize for any worker count, so
// wherever the scanner's previous candidate was, its next probe starts inside
// that block — and a second block that holds the tail and is the next
// candidate the probe finds: a speculative chunk starts exactly there.
func dictMember(t *testing.T) (member []byte, head []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	noise := func(n int, first byte, width int) []byte {
		p := make([]byte, n)
		for i := range p {
			p[i] = first + byte(rng.Intn(width))
		}
		return p
	}
	dict := noise(winSize, 'A', 26)
	head = noise(20<<10, 'a', 64)
	tail := dict[28<<10:]
	var df bytes.Buffer
	fw, err := flate.NewWriterDict(&df, flate.DefaultCompression, dict)
	if err != nil {
		t.Fatal(err)
	}
	fw.Write(head)
	fw.Write(tail)
	fw.Close()
	member = append(member, 0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 0, 0xff)
	member = append(member, df.Bytes()...)
	member = binary.LittleEndian.AppendUint32(member, crc32.ChecksumIEEE(append(head, tail...)))
	member = binary.LittleEndian.AppendUint32(member, uint32(len(head)+len(tail)))
	return member, head
}

// A speculative chunk whose markers reach before the member's first byte
// must be thrown away whole — the table behind resolveCells holds stale
// bytes down there — and the sequential engine must then report exactly
// what Workers: 1 reports.
func TestMarkerBeforeMemberStart(t *testing.T) {
	member, head := dictMember(t)
	first := datagen.WikiXML(64<<10, 3)
	data := append(stdGzip(t, first), member...)

	base := streamed(t, data, FormatGzip, Options{Workers: 1})
	wantErr(t, "W=1", base.err, ErrCorrupt, -1)
	if want := append(append([]byte(nil), first...), head...); !bytes.HasPrefix(base.out, want) {
		t.Fatalf("W=1 served %d bytes, want at least the %d before the dictionary tail", len(base.out), len(want))
	}
	for _, w := range []int{2, 4} {
		opt := Options{Workers: w, ChunkSize: minChunkSize}
		for rname, run := range map[string]func(*testing.T, []byte, Format, Options) outcome{"stream": streamed, "oneshot": oneShot} {
			got := run(t, data, FormatGzip, opt)
			sameOutcome(t, rname+"/W"+strconv.Itoa(w), got, base)
			checkStats(t, rname+"/W"+strconv.Itoa(w), got.stats, len(got.out))
			if canSpeculate() && got.stats.ChunksRejected == 0 {
				t.Fatalf("%s W=%d: no chunk was rejected on marker range (stats %+v); the stream no longer exercises the check", rname, w, got.stats)
			}
		}
	}
}

// A one-shot decode allocates its output and little else once the pools are
// warm: no staging buffer, no regrowth. (3.2× the output before ReadAll.)
func TestOneShotAllocBound(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops items under the race detector; warm-pool allocation bounds do not hold")
	}
	raw := datagen.WikiXML(8<<20, 1)
	gz := stdGzip(t, raw)
	// A collection empties sync.Pool, and what refilling the cell pool costs
	// is not what this bound is about.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, w := range []int{1, 2} {
		decode := func() {
			out, err := Decompress(gz, FormatGzip, Options{Workers: w})
			if err != nil || len(out) != len(raw) {
				t.Fatalf("W=%d: %d bytes, %v", w, len(out), err)
			}
		}
		decode()
		decode()
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			decode()
		}
		runtime.ReadMemStats(&after)
		perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if limit := 1.25 * float64(len(raw)); perOp > limit {
			t.Errorf("W=%d: %.0f bytes allocated per decode of %d, want ≤ %.0f", w, perOp, len(raw), limit)
		}
	}
}
