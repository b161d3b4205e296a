package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"time"

	"gompresso"
	"gompresso/internal/blockcache"
	"gompresso/internal/obs"
	"gompresso/internal/server"
)

// probeRequests is where in the schedule the serve probes take their
// requests from: past anything the timed phase is likely to have replayed
// recently, and the same place on every run of a seed.
const probeRequests = 1 << 9

// Probe takes a served range apart from outside: the daemon's own stage
// histograms over the traced loopback requests, the handler without a socket,
// the ReaderAt under it with and without a cache, and the cache alone.
func (w *serveWorkload) Probe(ctx context.Context, p *pass) error {
	if err := w.probeStages(p); err != nil {
		return err
	}
	if err := w.probeHandler(ctx, p); err != nil {
		return err
	}
	if err := w.probeReaderAt(ctx, p); err != nil {
		return err
	}
	if err := probeCache(ctx, p); err != nil {
		return err
	}
	if w.minHitRate > 0 {
		return w.probeTraceOverhead(ctx, p)
	}
	return nil
}

func (w *serveWorkload) probeRequest(i int) request {
	return w.sched[(probeRequests+i)%len(w.sched)]
}

// probeStages reads, over the traced loopback requests the pass opened
// with, the shares of request time the daemon itself attributes to each of
// its stages. block_decode spans are children of cache_lookup and run on
// several workers, so the shares overlap and need not sum to 1.
func (w *serveWorkload) probeStages(p *pass) error {
	now, err := scrape(w.ts)
	if err != nil {
		return err
	}
	before := w.mark.metrics
	total := now["request_latency_ns_sum"] - before["request_latency_ns_sum"]
	for _, stage := range obs.Stages() {
		if stage == "seq_decode" {
			continue // the sequential fallback: counted in server.sequential_decodes_total, expected 0
		}
		key := "stage_" + stage + "_ns_sum"
		p.m.emit("server.stage_"+stage+"_share", ratioOf(now[key]-before[key], total))
	}
	return nil
}

// discardResponse is a ResponseWriter with no socket behind it.
type discardResponse struct {
	header http.Header
	status int
	n      int64
}

func (d *discardResponse) Header() http.Header  { return d.header }
func (d *discardResponse) WriteHeader(code int) { d.status = code }
func (d *discardResponse) Write(p []byte) (int, error) {
	d.n += int64(len(p))
	return len(p), nil
}

// probeHandler drives the handler directly, with no socket, on requests
// from another stretch of the schedule than the traced loopback ops used;
// what loopback adds on top is the transport's share.
func (w *serveWorkload) probeHandler(ctx context.Context, p *pass) error {
	h := w.srv.Handler()
	err := p.reps(0.10, 1, func(i int) error {
		rq := w.probeRequest(i)
		req, err := w.request(ctx, "http://bench.invalid", rq)
		if err != nil {
			return err
		}
		rw := &discardResponse{header: http.Header{}}
		p.add("handler", 0, p.timed("server.handler_direct", -1, i, func() { h.ServeHTTP(rw, req) }))
		if rw.status != http.StatusPartialContent || rw.n != rq.Len {
			return fmt.Errorf("direct handler call: status %d, %d bytes, want 206 and %d", rw.status, rw.n, rq.Len)
		}
		return nil
	})
	if err != nil {
		return err
	}
	handler, loopback := p.sum("handler"), p.sum(tracedOp)
	p.m.emit("server.handler_us", handler*1e6)
	p.m.emit("server.transport_share", 1-ratioOf(handler, loopback))
	return nil
}

// probeReaderAt is the layer under the handler: ReadAt of the request mix
// with no cache at all, and WriteRangeTo with every block resident.
func (w *serveWorkload) probeReaderAt(ctx context.Context, p *pass) error {
	o := w.objs[0]
	open := func(opts ...gompresso.Option) (*gompresso.ReaderAt, error) {
		c, err := gompresso.New(append(opts, gompresso.WithContext(ctx))...)
		if err != nil {
			return nil, err
		}
		return c.NewReaderAt(bytes.NewReader(o.Comp), int64(len(o.Comp)))
	}
	cold, err := open()
	if err != nil {
		return err
	}
	warm, err := open(gompresso.WithCache(2 * int64(len(o.Raw))))
	if err != nil {
		return err
	}
	if _, err := warm.WriteRangeTo(ctx, io.Discard, 0, int64(len(o.Raw))); err != nil {
		return err
	}
	buf := make([]byte, len(w.body))
	var readBytes, readSeconds float64
	err = p.reps(0.10, 1, func(i int) error {
		var ferr error
		rq := w.probeRequest(i)
		dst := buf[:rq.Len]
		readSeconds += p.timed("readerat.readat", -1, i, func() {
			_, err := cold.ReadAt(dst, rq.Off)
			ferr = errors.Join(ferr, err)
		})
		readBytes += float64(rq.Len)
		if !bytes.Equal(dst, o.Raw[rq.Off:rq.Off+rq.Len]) {
			ferr = errors.Join(ferr, fmt.Errorf("ReadAt %d+%d differs from the input", rq.Off, rq.Len))
		}
		p.add("range_hit", 0, p.timed("readerat.range_hit", -1, i, func() {
			_, err := warm.WriteRangeTo(ctx, io.Discard, rq.Off, rq.Len)
			ferr = errors.Join(ferr, err)
		}))
		return ferr
	})
	if err != nil {
		return err
	}
	p.m.emit("readerat.readat_MBps", perSecond(readBytes, readSeconds))
	p.m.emit("readerat.range_hit_us", p.sum("range_hit")*1e6)
	return nil
}

// probeCache times the block cache alone, on blocks of the codec's default
// size: a hit on a resident key, and a miss with a decode that does
// nothing into a cache that is full, so each one inserts and evicts.
func probeCache(ctx context.Context, p *pass) error {
	const block, batch = 256 << 10, 256
	noop := func([]byte) error { return nil }
	touch := func(c *blockcache.Cache, key blockcache.Key) error {
		buf, err := c.GetOrDecode(ctx, key, block, noop)
		if err != nil {
			return err
		}
		buf.Release()
		return nil
	}
	hot := blockcache.New(64 << 20)
	full := blockcache.New(16 << 20)
	obj := blockcache.NextObject()
	for b := uint32(0); b < 64; b++ {
		if err := touch(hot, blockcache.Key{Object: obj, Block: b}); err != nil {
			return err
		}
		if err := touch(full, blockcache.Key{Object: obj, Block: b}); err != nil {
			return err
		}
	}
	next := uint32(64)
	err := p.reps(0, 1, func(rep int) error {
		var ferr error
		p.add("hit", 0, p.timed("blockcache.hit", -1, rep, func() {
			for i := uint32(0); i < batch; i++ {
				if err := touch(hot, blockcache.Key{Object: obj, Block: i % 64}); err != nil {
					ferr = err
				}
			}
		})/batch)
		p.add("miss", 0, p.timed("blockcache.miss", -1, rep, func() {
			for i := uint32(0); i < batch; i++ {
				if err := touch(full, blockcache.Key{Object: obj, Block: next}); err != nil {
					ferr = err
				}
				next++
			}
		})/batch)
		return ferr
	})
	if err != nil {
		return err
	}
	if s := full.Stats(); s.Evictions == 0 {
		return errors.New("cache miss probe never evicted: the cache was not full")
	}
	p.m.emit("blockcache.hit_ns", p.sum("hit")*1e9)
	p.m.emit("blockcache.miss_overhead_ns", p.sum("miss")*1e9)
	return nil
}

// probeTraceOverhead compares the daemon with its request tracing on (the
// default the workload runs) and off, on the hot path where it costs most:
// two servers over the same fixtures, short closed-loop passes alternating
// between them so that drift falls on both.
func (w *serveWorkload) probeTraceOverhead(ctx context.Context, p *pass) error {
	srv, ts, err := w.start(server.Options{Root: w.root, CacheBytes: w.cacheBytes, NoTrace: true})
	if err != nil {
		return err
	}
	defer ts.Close()
	if err := sweep(ctx, ts, w.objs); err != nil {
		return err
	}
	swept := srv.Codec().CacheStats()
	const rounds = 8
	slice := time.Duration(0.48 / (2 * rounds) * float64(p.budget))
	var traced, untraced phase
	next := probeRequests
	for round := 0; round < rounds; round++ {
		for _, side := range []struct {
			c   caller
			sum *phase
		}{{w, &traced}, {&serveVia{w, ts}, &untraced}} {
			ph, n := runPhase(ctx, side.c, next, slice, func() {})
			next = n
			if ph.Failed > 0 {
				return ph.FirstErr
			}
			side.sum.Payload += ph.Payload
			side.sum.Busy += ph.Busy
		}
	}
	if now := srv.Codec().CacheStats(); now.Misses > swept.Misses {
		return errors.New("untraced server did not stay hot")
	}
	p.m.emit("obs.trace_overhead_share", 1-ratioOf(traced.MBps(), untraced.MBps()))
	return nil
}

// serveVia sends the workload's requests to another server.
type serveVia struct {
	w  *serveWorkload
	ts *httptest.Server
}

func (v *serveVia) Do(ctx context.Context, i int) (int64, error) {
	return v.w.get(ctx, v.ts, v.w.sched[i%len(v.w.sched)])
}

func (v *serveVia) Check(ctx context.Context, i int) error { return v.w.Check(ctx, i) }
