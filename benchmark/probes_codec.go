package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"

	"gompresso"
	"gompresso/internal/core"
	"gompresso/internal/datagen"
	"gompresso/internal/format"
	"gompresso/internal/huffman"
	"gompresso/internal/lz77"
)

// Every probe below calls one exported function of one package under a
// span, single-threaded, on the workload's own objects. The fused call and
// the probes of its layers run back to back on the same object, so drift
// hits both sides of every share and ratio.

// probeObjects picks the first object of each family.
func probeObjects(objs []*object) []*object {
	return objs[:min(len(objs), len(families))]
}

func nproc() int { return runtime.GOMAXPROCS(0) }

func (w *decodeWorkload) Probe(ctx context.Context, p *pass) error {
	if w.kind == gzipOneshot {
		return w.probeGzip(ctx, p)
	}
	return w.probeNative(ctx, p)
}

// probeNative takes the native decode path apart: container parse, output
// allocation, per-block decode, and inside a Bit block the table build and
// the match copy, with entropy decode as what remains.
func (w *decodeWorkload) probeNative(ctx context.Context, p *pass) error {
	bit := w.kind == oneshotBit
	variant := gompresso.VariantByte
	if bit {
		variant = gompresso.VariantBit
	}
	w1, err := nativeCodec(variant, false, gompresso.WithWorkers(1), gompresso.WithContext(ctx))
	if err != nil {
		return err
	}
	objs := probeObjects(w.objs)
	sc := format.GetScratch()
	defer format.PutScratch(sc)
	var tables tableScratch
	var rawBytes, blocks float64
	var seqs, matchBytes int64
	for _, o := range objs {
		rawBytes += float64(len(o.Raw))
	}

	err = p.reps(0.60, len(objs), func(rep int) error {
		k := rep % len(objs)
		o := objs[k]
		root := p.tr.begin("rep", -1, rep)
		defer p.tr.end(root)
		var ferr error
		fail := func(err error) { ferr = errors.Join(ferr, err) }
		same := func(out []byte) {
			if !bytes.Equal(out, o.Raw) {
				fail(fmt.Errorf("%s: probe output differs from the input", o.Name))
			}
		}

		// The fused calls, at one worker and at the default.
		var out1, outN []byte
		tW1 := p.timed("core.oneshot_w1", root, rep, func() {
			var err error
			out1, _, err = w1.Decompress(o.Comp)
			fail(err)
		})
		tWn := p.timed("core.oneshot_wn", root, rep, func() {
			var err error
			outN, _, err = w.codec.Decompress(o.Comp)
			fail(err)
		})
		tS1 := p.timed("reader.stream_w1", root, rep, func() { fail(streamDiscard(ctx, w1, o)) })
		tSn := p.timed("reader.stream_wn", root, rep, func() { fail(streamDiscard(ctx, w.codec, o)) })
		same(out1)
		same(outN)

		// The same work, one layer at a time.
		layers := p.tr.begin("layers", root, rep)
		var f *format.File
		tParse := p.timed("format.parse", layers, rep, func() {
			var err error
			f, err = format.ParseFile(o.Comp)
			fail(err)
		})
		if ferr != nil {
			p.tr.end(layers)
			return ferr
		}
		var dst []byte
		tMake := p.timed("core.make", layers, rep, func() { dst = make([]byte, f.Header.RawSize) })
		bs := int(f.Header.BlockSize)
		decodeAll := func(suffix string, parent int) (t float64) {
			for i := range f.Blocks {
				blk := &f.Blocks[i]
				region := dst[i*bs : i*bs+blk.RawLen : i*bs+blk.RawLen]
				if bit {
					bb := f.BitBlockOf(i)
					t += p.timed("format.bit_decode"+suffix, parent, rep, func() { fail(bb.DecodeBitInto(region, sc)) })
				} else {
					t += p.timed("format.byte_decode"+suffix, parent, rep, func() { fail(format.DecodeByteInto(region, blk.Payload, blk.NumSeqs)) })
				}
			}
			return t
		}
		tDecode := decodeAll("", layers)
		p.tr.end(layers)
		same(dst)
		// Once more into the now-resident buffer: the decoder alone, without
		// the first-touch page faults a fresh output buffer costs.
		tWarm := decodeAll(".warm", root)

		// Inside a block: table build, the reference decoders (which also
		// yield the token streams), and the match copy replayed alone.
		var tTables, tRef, tCopy, tResolve float64
		streams := make([]*lz77.TokenStream, len(f.Blocks))
		for i := range f.Blocks {
			blk := &f.Blocks[i]
			if bit {
				tTables += p.timed("huffman.table_build", root, rep, func() { fail(tables.build(blk)) })
				tRef += p.timed("format.bit_entropy_ref", root, rep, func() {
					var err error
					streams[i], err = f.BitBlockOf(i).DecodeBit(blk.RawLen)
					fail(err)
				})
			} else {
				var err error
				streams[i], err = format.DecodeByte(blk.Payload, blk.NumSeqs, blk.RawLen)
				fail(err)
			}
		}
		if ferr != nil {
			return ferr
		}
		clear(dst)
		for i, ts := range streams {
			region := dst[i*bs : i*bs+ts.RawLen]
			tCopy += p.timed("lz77.copy_replay", root, rep, func() { replay(region, ts) })
		}
		same(dst)
		buf := dst[:0]
		for _, ts := range streams {
			tResolve += p.timed("lz77.resolve_ref", root, rep, func() {
				var err error
				buf, err = ts.Decompress(buf[:0])
				fail(err)
			})
		}
		if rep < len(objs) {
			blocks += float64(len(f.Blocks))
			for _, ts := range streams {
				seqs += int64(len(ts.Seqs))
				for _, s := range ts.Seqs {
					matchBytes += int64(s.MatchLen)
				}
			}
		}

		p.add("w1", k, tW1)
		p.add("wn", k, tWn)
		p.add("s1", k, tS1)
		p.add("sn", k, tSn)
		p.add("parse", k, tParse)
		p.add("decode", k, tWarm)
		p.add("tables", k, tTables)
		p.add("ref", k, tRef)
		p.add("copy", k, tCopy)
		p.add("resolve", k, tResolve)
		p.add("overhead", k, 1-(tParse+tDecode)/tW1)
		p.add("layers", k, (tParse+tDecode+tMake)/tW1)
		p.add("entropy", k, 1-(tTables+tCopy)/tWarm)
		p.add("pipe1", k, 1-tWarm/tS1)
		p.add("pipen", k, 1-tWarm/float64(nproc())/tSn)
		return ferr
	})
	if err != nil {
		return err
	}

	m := p.m
	m.emit("format.parse_us_per_MB", p.sum("parse")*1e6/(rawBytes/1e6))
	m.emit("core.oneshot_w1_MBps", perSecond(rawBytes, p.sum("w1")))
	m.emit("core.overhead_share", p.mean("overhead"))
	m.emit("core.layers_over_e2e", p.mean("layers"))
	m.emit("lz77.copy_replay_MBps", perSecond(rawBytes, p.sum("copy")))
	m.emit("lz77.resolve_ref_MBps", perSecond(rawBytes, p.sum("resolve")))
	m.emit("lz77.match_share", float64(matchBytes)/rawBytes)
	m.emit("lz77.avg_match_len", ratioOf(float64(matchBytes), float64(seqs)))
	m.emit("lz77.seqs_per_KB", float64(seqs)/(rawBytes/1024))
	if bit {
		// Throughput of the workload's own call, one worker against all.
		m.emit("parallel.scaling_eff", p.sum("w1")/p.sum("wn")/float64(nproc()))
		m.emit("format.bit_decode_MBps", perSecond(rawBytes, p.sum("decode")))
		m.emit("format.bit_entropy_share", p.mean("entropy"))
		m.emit("format.bit_entropy_ref_MBps", perSecond(rawBytes, p.sum("ref")))
		m.emit("huffman.table_build_us_per_block", p.sum("tables")*1e6/blocks)
		m.emit("reader.stream_bit_MBps", perSecond(rawBytes, p.sum("sn")))
	} else {
		m.emit("parallel.scaling_eff", p.sum("s1")/p.sum("sn")/float64(nproc()))
		m.emit("format.byte_decode_MBps", perSecond(rawBytes, p.sum("decode")))
		m.emit("reader.stream_w1_MBps", perSecond(rawBytes, p.sum("s1")))
		m.emit("reader.pipeline_overhead_share", p.mean("pipen"))
		m.emit("reader.pipeline_overhead_share_w1", p.mean("pipe1"))
	}

	if err := w.probeScanIndex(p, objs[0]); err != nil {
		return err
	}
	if err := w.probeKernels(ctx, p, objs[0]); err != nil {
		return err
	}
	if bit {
		return probeEdgeDecode(p)
	}
	return nil
}

func streamDiscard(ctx context.Context, c *gompresso.Codec, o *object) error {
	n, err := streamTo(ctx, c, o, io.Discard)
	if err == nil && n != int64(len(o.Raw)) {
		err = fmt.Errorf("%s: streamed %d bytes, want %d", o.Name, n, len(o.Raw))
	}
	return err
}

// tableScratch rebuilds a Bit block's two decode tables the way the fused
// decoder does, into reused storage, with a pack function of the harness's
// own (the decoder's is not exported; the cost is the table fill).
type tableScratch struct{ lit, off []uint32 }

func packEntry(sym int, codeLen uint8) uint32 { return uint32(sym)<<8 | uint32(codeLen) }

func maxLen(lengths []uint8) int {
	m := 1
	for _, l := range lengths {
		m = max(m, int(l))
	}
	return m
}

func (t *tableScratch) build(blk *format.Block) error {
	var err error
	if t.lit, err = huffman.FillTable(t.lit, blk.LitLenLengths, maxLen(blk.LitLenLengths), 0, packEntry); err != nil {
		return err
	}
	if bytes.Count(blk.OffLengths, []byte{0}) == len(blk.OffLengths) {
		return nil // no matches in the block: the decoder builds no offset table
	}
	t.off, err = huffman.FillTable(t.off, blk.OffLengths, maxLen(blk.OffLengths), 0, packEntry)
	return err
}

// replay expands a pre-decoded token stream the way the fused decoders
// place bytes: literal runs by copy, matches by lz77.CopyWithin.
func replay(dst []byte, ts *lz77.TokenStream) {
	lit, pos := ts.Literals, 0
	for _, s := range ts.Seqs {
		pos += copy(dst[pos:], lit[:s.LitLen])
		lit = lit[s.LitLen:]
		if s.MatchLen > 0 {
			pos = lz77.CopyWithin(dst, pos, int(s.Offset), int(s.MatchLen))
		}
	}
}

// probeScanIndex times the scan that stands in for a missing index trailer.
func (w *decodeWorkload) probeScanIndex(p *pass, o *object) error {
	err := p.reps(0, 1, func(rep int) (err error) {
		p.add("scan", 0, p.timed("format.scan_index", -1, rep, func() {
			_, _, err = format.ScanIndex(bytes.NewReader(o.Comp))
		}))
		return err
	})
	p.m.emit("format.scan_index_us_per_MB", p.sum("scan")*1e6/(float64(len(o.Raw))/1e6))
	return err
}

// probeKernels runs the modelled device engine once: its figures repeat
// exactly for a seed and move only when the format or the parse does.
func (w *decodeWorkload) probeKernels(ctx context.Context, p *pass, o *object) error {
	dev, err := gompresso.New(gompresso.WithEngine(gompresso.EngineDevice), gompresso.WithContext(ctx))
	if err != nil {
		return err
	}
	if w.kind == oneshotBit {
		_, st, err := dev.Decompress(o.Comp)
		if err != nil {
			return fmt.Errorf("device engine: %w", err)
		}
		p.m.emit("kernels.sim_bit_de_GBps", st.Throughput()/1e9)
		return nil
	}
	// Multi-round resolution needs a parse that kept its dependencies.
	off, err := gompresso.New(gompresso.WithVariant(gompresso.VariantByte), gompresso.WithDE(gompresso.DEOff), gompresso.WithContext(ctx))
	if err != nil {
		return err
	}
	comp, _, err := off.Compress(o.Raw)
	if err != nil {
		return err
	}
	_, st, err := dev.Decompress(comp)
	if err != nil {
		return fmt.Errorf("device engine: %w", err)
	}
	p.m.emit("kernels.sim_byte_mrr_GBps", st.Throughput()/1e9)
	p.m.emit("kernels.mrr_rounds_avg", st.Rounds.AvgRounds())
	return nil
}

// edgeBlocks are the shapes kept out of the end-to-end mix: all zeros, no
// repetition, one phrase repeated.
func edgeBlocks(sz sizes) map[string][]byte {
	return map[string][]byte{
		"zeros":  datagen.Zeros(sz.EdgeBlock),
		"random": datagen.Random(sz.EdgeBlock, 7),
		"phrase": datagen.RepeatPhrase(sz.EdgeBlock, "the quick brown fox jumps over the lazy dog. "),
	}
}

func defaultEncodeOptions() (core.Options, error) {
	return core.Options{Variant: format.VariantBit, DE: lz77.DEStrict}.Normalize()
}

func lzOptions(o core.Options) lz77.Options {
	return lz77.Options{Window: o.Window, MinMatch: o.MinMatch, MaxMatch: o.MaxMatch, MaxChain: o.MaxChain, DE: o.DE, Staleness: o.Staleness}
}

// probeEdgeDecode decodes one all-zeros and one incompressible Bit block.
func probeEdgeDecode(p *pass) error {
	opt, err := defaultEncodeOptions()
	if err != nil {
		return err
	}
	blocks := edgeBlocks(p.sz)
	for _, shape := range []string{"zeros", "random"} {
		raw := blocks[shape]
		ts, err := lz77.Parse(raw, lzOptions(opt))
		if err != nil {
			return err
		}
		bb, err := format.EncodeBit(ts, opt.CWL, opt.SeqsPerSub)
		if err != nil {
			return err
		}
		dst := make([]byte, len(raw))
		err = p.reps(0, 1, func(rep int) (err error) {
			p.add("edge."+shape, 0, p.timed("format.bit_decode."+shape, -1, rep, func() { err = bb.DecodeBitInto(dst, nil) }))
			return err
		})
		if err != nil || !bytes.Equal(dst, raw) {
			return fmt.Errorf("edge block %s did not decode back: %w", shape, err)
		}
		p.m.emit("format.bit_decode_"+shape+"_MBps", perSecond(float64(len(raw)), p.sum("edge."+shape)))
	}
	return nil
}

var allocObjects = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

func heapAllocs() uint64 {
	metrics.Read(allocObjects)
	return allocObjects[0].Value.Uint64()
}

// probeBlocks is how many leading blocks of each probe object the encode
// probes use: match finding runs near 30 MB/s, so whole objects would not
// fit fifteen repetitions into the pass.
const probeBlocks = 2

// Probe takes the encoder apart: match finding, code construction, bit
// emission, and the block record and Writer built on them.
func (w *encodeWorkload) Probe(ctx context.Context, p *pass) error {
	opt := w.codec.Options()
	w1, err := nativeCodec(gompresso.VariantBit, false, gompresso.WithWorkers(1), gompresso.WithContext(ctx))
	if err != nil {
		return err
	}
	objs := probeObjects(w.objs)
	var rawBytes, blocks float64
	var seqs, matchBytes int64

	err = p.reps(0.55, len(objs), func(rep int) error {
		k := rep % len(objs)
		o := objs[k]
		raw := o.Raw[:min(len(o.Raw), probeBlocks*opt.BlockSize)]
		root := p.tr.begin("rep", -1, rep)
		defer p.tr.end(root)
		var ferr error
		var tParse, tEmit, tLengths, tRecord, allocs float64
		var n int
		for lo := 0; lo < len(raw); lo += opt.BlockSize {
			blk := raw[lo:min(lo+opt.BlockSize, len(raw))]
			n++
			var ts *lz77.TokenStream
			a0 := heapAllocs()
			tParse += p.timed("lz77.parse", root, rep, func() {
				var err error
				ts, err = lz77.Parse(blk, lzOptions(opt))
				ferr = errors.Join(ferr, err)
			})
			allocs += float64(heapAllocs() - a0)
			if ferr != nil {
				return ferr
			}
			tEmit += p.timed("format.encode_bit", root, rep, func() {
				_, err := format.EncodeBit(ts, opt.CWL, opt.SeqsPerSub)
				ferr = errors.Join(ferr, err)
			})
			litFreq, offFreq := histograms(ts)
			tLengths += p.timed("huffman.build_lengths", root, rep, func() {
				_, err := huffman.BuildLengths(litFreq, opt.CWL)
				ferr = errors.Join(ferr, err)
				if offFreq != nil {
					_, err = huffman.BuildLengths(offFreq, opt.CWL)
					ferr = errors.Join(ferr, err)
				}
			})
			tRecord += p.timed("core.encode_block", root, rep, func() {
				_, _, err := core.EncodeBlockRecord(nil, blk, opt)
				ferr = errors.Join(ferr, err)
			})
			if rep < len(objs) {
				seqs += int64(len(ts.Seqs))
				for _, s := range ts.Seqs {
					matchBytes += int64(s.MatchLen)
				}
			}
		}
		tW1 := p.timed("writer.w1", root, rep, func() { ferr = errors.Join(ferr, writeTo(w1, raw, io.Discard)) })
		tWn := p.timed("writer.wn", root, rep, func() { ferr = errors.Join(ferr, writeTo(w.codec, raw, io.Discard)) })
		if rep < len(objs) {
			rawBytes += float64(len(raw))
			blocks += float64(n)
		}
		p.add("parse", k, tParse)
		p.add("emit", k, tEmit)
		p.add("lengths", k, tLengths)
		p.add("record", k, tRecord)
		p.add("w1", k, tW1)
		p.add("wn", k, tWn)
		p.add("allocs", k, allocs/float64(n))
		p.add("layers", k, (tParse+tEmit)/tRecord)
		p.add("overhead", k, 1-tRecord/tW1)
		return ferr
	})
	if err != nil {
		return err
	}
	m := p.m
	m.emit("lz77.parse_MBps", perSecond(rawBytes, p.sum("parse")))
	m.emit("lz77.parse_allocs_per_block", p.mean("allocs"))
	m.emit("format.encode_bit_MBps", perSecond(rawBytes, p.sum("emit")))
	m.emit("huffman.build_lengths_us_per_block", p.sum("lengths")*1e6/blocks)
	m.emit("core.encode_block_MBps", perSecond(rawBytes, p.sum("record")))
	m.emit("core.encode_layers_over_e2e", p.mean("layers"))
	m.emit("writer.w1_MBps", perSecond(rawBytes, p.sum("w1")))
	m.emit("writer.overhead_share", p.mean("overhead"))
	m.emit("parallel.scaling_eff", p.sum("w1")/p.sum("wn")/float64(nproc()))
	m.emit("lz77.match_share", float64(matchBytes)/rawBytes)
	m.emit("lz77.avg_match_len", ratioOf(float64(matchBytes), float64(seqs)))
	m.emit("lz77.seqs_per_KB", float64(seqs)/(rawBytes/1024))

	for shape, raw := range edgeBlocks(p.sz) {
		parse := func(rep int) (err error) {
			p.add("edge."+shape, 0, p.timed("lz77.parse."+shape, -1, rep, func() { _, err = lz77.Parse(raw, lzOptions(opt)) }))
			return err
		}
		if shape != "zeros" {
			err = p.reps(0, 1, parse)
		}
		for rep := 0; shape == "zeros" && rep < p.sz.ZerosReps && err == nil; rep++ {
			err = parse(rep) // half a second a block: fifteen would be most of the pass
		}
		if err != nil {
			return err
		}
		m.emit("lz77.parse_"+shape+"_MBps", perSecond(float64(len(raw)), p.sum("edge."+shape)))
	}
	return nil
}

// histograms counts the symbols format.EncodeBit would code for ts; the
// offset histogram is nil when the block has no matches.
func histograms(ts *lz77.TokenStream) (litLen, off []int64) {
	litLen = make([]int64, format.LitLenSyms)
	for _, b := range ts.Literals {
		litLen[b]++
	}
	for _, s := range ts.Seqs {
		sym, _, _ := format.LenSym(s.MatchLen)
		litLen[sym]++
		if s.MatchLen > 0 {
			if off == nil {
				off = make([]int64, format.OffSyms)
			}
			osym, _, _ := format.OffSym(s.Offset)
			off[osym]++
		}
	}
	return litLen, off
}
