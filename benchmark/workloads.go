package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"time"

	"gompresso"
)

// workloadDefs names the six workloads and why each exists. The names are
// what every later claim is stated in; the program under test never sees
// them, only the bytes generated for them.
var workloadDefs = []struct{ Name, Why string }{
	{"oneshot-bit", "Codec.Decompress of 4 MiB Bit/DEStrict containers: the paper's headline case, entropy decode and match copy split the block time, no cache, server or deflate"},
	{"stream-byte", "Reader.WriteTo of the same data as Byte/DEStrict: no Huffman at all, so match copy, memory bandwidth and the Reader pipeline dominate; an entropy change must not move it"},
	{"encode-bit", "Writer over 4 MiB raw objects (Bit/DEStrict): the lz77, huffman and format packages in the write direction, so a decode gain bought with encoder cost or ratio shows"},
	{"gzip-oneshot", "Codec.Decompress of 16 MiB-raw stdlib-made .gz files: the foreign path, where internal/deflate's speculative pipeline and CRC do all the work and native format does none"},
	{"serve-hot", "ranged GETs over loopback with a 256 MiB cache holding the whole 96 MiB working set: request handling, cache hits and body writes, decode near zero"},
	{"serve-cold", "the same requests with a 16 MiB cache, a sixth of the working set: block decode, cache miss/insert/evict churn and source reads dominate"},
}

// setupTimes splits setup_s.
type setupTimes struct{ Gen, Compress, Warm float64 }

func (s setupTimes) total() float64 { return s.Gen + s.Compress + s.Warm }

// workload is one of the six: it builds its inputs from the seed, performs
// and verifies single operations for the closed loop, and probes its layers
// in the traced pass.
type workload interface {
	caller
	Setup(ctx context.Context) (setupTimes, error)
	// Ratio is raw bytes over stored bytes across the whole input set.
	Ratio() float64
	// Mark is called as the timed phase starts and Finish as it ends;
	// Finish emits what the phase's counters say and rejects an invalid run.
	Mark() error
	Finish(m *metricSet, timed *phase) error
	// Probe measures the workload's layers one at a time, under spans.
	Probe(ctx context.Context, p *pass) error
	Close() error
}

// newWorkload builds the named workload. Its Setup calls tick between
// objects, where nothing of the program under test is running.
func newWorkload(name string, seed uint64, sz sizes, workDir string, tick func()) (workload, error) {
	switch name {
	case "oneshot-bit":
		return &decodeWorkload{kind: oneshotBit, seed: seed, sz: sz, tick: tick}, nil
	case "stream-byte":
		return &decodeWorkload{kind: streamByte, seed: seed, sz: sz, tick: tick}, nil
	case "gzip-oneshot":
		return &decodeWorkload{kind: gzipOneshot, seed: seed, sz: sz, tick: tick}, nil
	case "encode-bit":
		return &encodeWorkload{seed: seed, sz: sz, tick: tick}, nil
	case "serve-hot":
		return &serveWorkload{name: name, seed: seed, sz: sz, tick: tick, workDir: workDir, cacheBytes: sz.HotCache, minHitRate: 0.99}, nil
	case "serve-cold":
		return &serveWorkload{name: name, seed: seed, sz: sz, tick: tick, workDir: workDir, cacheBytes: sz.ColdCache}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// verifyEvery is how often, after the first visit to an object, a decode
// op's output is compared byte for byte; its length is checked on every op.
const verifyEvery = 16

// noPhaseHooks is embedded by the workloads with no counters to read.
type noPhaseHooks struct{}

func (noPhaseHooks) Mark() error                     { return nil }
func (noPhaseHooks) Finish(*metricSet, *phase) error { return nil }
func (noPhaseHooks) Close() error                    { return nil }

func nativeCodec(v gompresso.Variant, index bool, opts ...gompresso.Option) (*gompresso.Codec, error) {
	return gompresso.New(append([]gompresso.Option{
		gompresso.WithVariant(v), gompresso.WithDE(gompresso.DEStrict), gompresso.WithIndex(index),
	}, opts...)...)
}

// nativeSet generates the native objects and compresses each with one-shot
// Compress on a codec of the given variant, which it returns; tick runs
// between objects. st carries the generate and compress times.
func nativeSet(ctx context.Context, v gompresso.Variant, index bool, seed uint64, sz sizes, tick func()) (objs []*object, c *gompresso.Codec, st setupTimes, err error) {
	t0 := time.Now()
	if objs, err = genObjects(ctx, "obj", sz.NativeObjects, sz.NativeSize, seed); err != nil {
		return nil, nil, st, err
	}
	st.Gen = time.Since(t0).Seconds()
	tick()
	t0 = time.Now()
	if c, err = nativeCodec(v, index, gompresso.WithContext(ctx)); err != nil {
		return nil, nil, st, err
	}
	for _, o := range objs {
		if o.Comp, _, err = c.Compress(o.Raw); err != nil {
			return nil, nil, st, fmt.Errorf("compress %s: %w", o.Name, err)
		}
		tick()
	}
	st.Compress = time.Since(t0).Seconds()
	return objs, c, st, nil
}

func ratioOfSet(objs []*object) float64 {
	var raw, comp float64
	for _, o := range objs {
		raw += float64(len(o.Raw))
		comp += float64(len(o.Comp))
	}
	return ratioOf(raw, comp)
}

type decodeKind int

const (
	oneshotBit decodeKind = iota
	streamByte
	gzipOneshot
)

// decodeWorkload is the three bulk decode workloads: objects round-robin,
// one whole object per op.
type decodeWorkload struct {
	noPhaseHooks
	kind    decodeKind
	seed    uint64
	sz      sizes
	tick    func()
	objs    []*object
	codec   *gompresso.Codec
	visited []bool
	out     []byte // oneshot: what the last Do returned
	n       int64  // stream: how many bytes the last Do wrote
}

func (w *decodeWorkload) Setup(ctx context.Context) (st setupTimes, err error) {
	switch w.kind {
	case oneshotBit:
		w.objs, w.codec, st, err = nativeSet(ctx, gompresso.VariantBit, false, w.seed, w.sz, w.tick)
	case streamByte:
		w.objs, w.codec, st, err = nativeSet(ctx, gompresso.VariantByte, false, w.seed, w.sz, w.tick)
	case gzipOneshot:
		st, err = w.setupGzip(ctx)
	}
	w.visited = make([]bool, len(w.objs))
	return st, err
}

func (w *decodeWorkload) setupGzip(ctx context.Context) (st setupTimes, err error) {
	t0 := time.Now()
	if w.objs, err = genObjects(ctx, "gz", w.sz.GzipObjects, w.sz.GzipSize, w.seed); err != nil {
		return st, err
	}
	st.Gen = time.Since(t0).Seconds()
	w.tick()
	t0 = time.Now()
	if w.codec, err = gompresso.New(gompresso.WithFormat(gompresso.FormatGzip), gompresso.WithContext(ctx)); err != nil {
		return st, err
	}
	err = gzipObjects(w.objs)
	st.Compress = time.Since(t0).Seconds()
	w.tick()
	return st, err
}

func (w *decodeWorkload) Ratio() float64 { return ratioOfSet(w.objs) }

func (w *decodeWorkload) Do(ctx context.Context, i int) (int64, error) {
	o := w.objs[i%len(w.objs)]
	if w.kind != streamByte {
		out, _, err := w.codec.Decompress(o.Comp)
		w.out = out
		return int64(len(out)), err
	}
	n, err := streamTo(ctx, w.codec, o, io.Discard)
	w.n = n
	return n, err
}

// streamTo is stream-byte's op: a Reader over the container, drained into
// sink.
func streamTo(ctx context.Context, c *gompresso.Codec, o *object, sink io.Writer) (int64, error) {
	r, err := c.NewReaderContext(ctx, bytes.NewReader(o.Comp))
	if err != nil {
		return 0, err
	}
	n, err := r.WriteTo(sink)
	return n, errors.Join(err, r.Close())
}

func (w *decodeWorkload) Check(ctx context.Context, i int) error {
	k := i % len(w.objs)
	o := w.objs[k]
	full := !w.visited[k] || i%verifyEvery == 0
	w.visited[k] = true
	if w.kind != streamByte {
		if len(w.out) != len(o.Raw) {
			return fmt.Errorf("%s: decoded %d bytes, want %d", o.Name, len(w.out), len(o.Raw))
		}
		if full && !bytes.Equal(w.out, o.Raw) {
			return fmt.Errorf("%s: decoded bytes differ from the input", o.Name)
		}
		return nil
	}
	if w.n != int64(len(o.Raw)) {
		return fmt.Errorf("%s: streamed %d bytes, want %d", o.Name, w.n, len(o.Raw))
	}
	if !full {
		return nil
	}
	// The timed op streams to io.Discard, so the bytes are checked on a
	// second, untimed pass of the same call into a comparing sink.
	cmp := compareWriter{want: o.Raw}
	if _, err := streamTo(ctx, w.codec, o, &cmp); err != nil {
		return fmt.Errorf("%s: verification pass: %w", o.Name, err)
	}
	return cmp.result(o.Name)
}

// compareWriter checks a stream against the bytes it should be, in place.
type compareWriter struct {
	want []byte
	off  int
	bad  bool
}

func (c *compareWriter) Write(p []byte) (int, error) {
	if c.off+len(p) > len(c.want) || !bytes.Equal(p, c.want[c.off:c.off+len(p)]) {
		c.bad = true
	}
	c.off += len(p)
	return len(p), nil
}

func (c *compareWriter) result(name string) error {
	if c.bad || c.off != len(c.want) {
		return fmt.Errorf("%s: streamed bytes differ from the input", name)
	}
	return nil
}

// countWriter is encode-bit's sink: io.Discard that remembers the size.
type countWriter struct{ n int64 }

func (c *countWriter) Write(p []byte) (int, error) {
	c.n += int64(len(p))
	return len(p), nil
}

// encodeWorkload compresses one raw object per op through the Writer.
type encodeWorkload struct {
	noPhaseHooks
	seed    uint64
	sz      sizes
	tick    func()
	objs    []*object // Comp is one-shot Codec.Compress: the reference the Writer must match
	codec   *gompresso.Codec
	visited []bool
	sink    countWriter
}

func (w *encodeWorkload) Setup(ctx context.Context) (st setupTimes, err error) {
	w.objs, w.codec, st, err = nativeSet(ctx, gompresso.VariantBit, false, w.seed, w.sz, w.tick)
	w.visited = make([]bool, len(w.objs))
	return st, err
}

func (w *encodeWorkload) Ratio() float64 { return ratioOfSet(w.objs) }

func (w *encodeWorkload) Do(_ context.Context, i int) (int64, error) {
	o := w.objs[i%len(w.objs)]
	w.sink.n = 0
	return int64(len(o.Raw)), writeTo(w.codec, o.Raw, &w.sink)
}

// writeTo is encode-bit's op: a Writer over sink, fed raw whole, closed.
func writeTo(c *gompresso.Codec, raw []byte, sink io.Writer) error {
	zw := c.NewWriter(sink)
	_, err := zw.Write(raw)
	return errors.Join(err, zw.Close())
}

func (w *encodeWorkload) Check(_ context.Context, i int) error {
	k := i % len(w.objs)
	o := w.objs[k]
	if w.sink.n != int64(len(o.Comp)) {
		return fmt.Errorf("%s: Writer produced %d bytes, Compress %d", o.Name, w.sink.n, len(o.Comp))
	}
	if w.visited[k] {
		return nil
	}
	w.visited[k] = true
	// The timed op writes to a counting sink; the first visit repeats it,
	// untimed, into memory to check the bytes themselves.
	var buf bytes.Buffer
	if err := writeTo(w.codec, o.Raw, &buf); err != nil {
		return fmt.Errorf("%s: verification pass: %w", o.Name, err)
	}
	if !bytes.Equal(buf.Bytes(), o.Comp) {
		return fmt.Errorf("%s: Writer output differs from one-shot Compress", o.Name)
	}
	back, _, err := w.codec.Decompress(buf.Bytes())
	if err != nil {
		return fmt.Errorf("%s: decoding the Writer's output: %w", o.Name, err)
	}
	if !bytes.Equal(back, o.Raw) {
		return fmt.Errorf("%s: Writer output does not decode back to the input", o.Name)
	}
	return nil
}
