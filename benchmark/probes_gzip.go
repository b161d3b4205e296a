package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gompresso/internal/deflate"
	"gompresso/internal/gzidx"
)

// probeGzip takes the foreign path apart: the engine alone, the speculative
// pipeline over it, the cost of capturing a seek index on the way, chunked
// random access through that index, and the sidecar codec. The standard
// library's gunzip of the same file runs beside them as the yardstick.
func (w *decodeWorkload) probeGzip(ctx context.Context, p *pass) error {
	objs := probeObjects(w.objs)
	var rawBytes, sidecarBytes float64
	for _, o := range objs {
		rawBytes += float64(len(o.Raw))
	}
	err := p.reps(0.85, len(objs), func(rep int) error {
		k := rep % len(objs)
		o := objs[k]
		root := p.tr.begin("rep", -1, rep)
		defer p.tr.end(root)
		var ferr error
		fail := func(err error) { ferr = errors.Join(ferr, err) }
		same := func(what string, out []byte) {
			if !bytes.Equal(out, o.Raw) {
				fail(fmt.Errorf("%s: %s output differs from the input", o.Name, what))
			}
		}
		decode := func(name string, workers int) float64 {
			var out []byte
			t := p.timed(name, root, rep, func() {
				var err error
				out, err = deflate.Decompress(o.Comp, deflate.FormatGzip, deflate.Options{Workers: workers})
				fail(err)
			})
			same(name, out)
			return t
		}
		tSeq := decode("deflate.seq", 1)
		tPar := decode("deflate.par", nproc())

		var idx *deflate.Index
		tCapture := p.timed("deflate.index_capture", root, rep, func() {
			r, err := deflate.NewReaderBytes(ctx, o.Comp, deflate.FormatGzip, deflate.Options{Workers: 1})
			if err != nil {
				fail(err)
				return
			}
			defer r.Close()
			fail(r.CollectIndex(deflate.DefaultCheckpointSpacing))
			var sink bytes.Buffer
			_, err = r.WriteTo(&sink)
			fail(err)
			idx, err = r.Index()
			fail(err)
		})
		if ferr != nil {
			return ferr
		}

		out := make([]byte, len(o.Raw))
		src := bytes.NewReader(o.Comp)
		var tChunks float64
		for i := 0; i < idx.NumChunks(); i++ {
			dst := out[idx.ChunkStart(i) : idx.ChunkStart(i)+idx.ChunkLen(i)]
			tChunks += p.timed("deflate.chunk_decode", root, rep, func() { fail(idx.DecodeChunkInto(dst, src, i)) })
		}
		same("chunked", out)

		var sidecar []byte
		tEncode := p.timed("gzidx.encode", root, rep, func() {
			var err error
			sidecar, err = gzidx.Encode(idx, time.Unix(0, 0))
			fail(err)
		})
		tDecode := p.timed("gzidx.decode", root, rep, func() {
			_, _, err := gzidx.Decode(sidecar)
			fail(err)
		})
		tStd := p.timed("control.stdlib_gunzip", root, rep, func() { fail(stdlibGunzip(o.Comp, len(o.Raw))) })
		if rep < len(objs) {
			sidecarBytes += float64(len(sidecar))
		}

		p.add("seq", k, tSeq)
		p.add("par", k, tPar)
		p.add("chunks", k, tChunks)
		p.add("encode", k, tEncode)
		p.add("decode", k, tDecode)
		p.add("capture", k, tCapture/tSeq-1)
		p.add("vs_stdlib", k, tStd/tSeq)
		return ferr
	})
	if err != nil {
		return err
	}
	m := p.m
	speedup := p.sum("seq") / p.sum("par")
	m.emit("deflate.seq_MBps", perSecond(rawBytes, p.sum("seq")))
	m.emit("deflate.par_MBps", perSecond(rawBytes, p.sum("par")))
	m.emit("deflate.par_speedup", speedup)
	m.emit("parallel.scaling_eff", speedup/float64(nproc()))
	m.emit("deflate.vs_stdlib", p.mean("vs_stdlib"))
	m.emit("deflate.index_capture_share", p.mean("capture"))
	m.emit("deflate.chunk_decode_MBps", perSecond(rawBytes, p.sum("chunks")))
	m.emit("gzidx.encode_ms", p.mean("encode")*1e3)
	m.emit("gzidx.decode_ms", p.mean("decode")*1e3)
	m.emit("gzidx.bytes_per_MB", sidecarBytes/(rawBytes/1e6))
	return nil
}

// stdlibGunzip is the control: code this repository cannot change.
func stdlibGunzip(comp []byte, want int) error {
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return err
	}
	n, err := io.Copy(io.Discard, zr)
	if err == nil && n != int64(want) {
		err = fmt.Errorf("stdlib gunzip produced %d bytes, want %d", n, want)
	}
	return err
}
