package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"gompresso/internal/datagen"
)

// runConfig is one workload run. Everything in it that changes a number is
// recorded in the report, and compare refuses reports that differ in it.
type runConfig struct {
	Workload     string
	Seed         uint64
	Seconds      float64 // timed phase; warm-up is a sixth of it
	TraceSeconds float64 // budget of the traced pass
	Trace        int     // 0: end-to-end metrics only; 1: per-layer only; -1: both
	Tiny         bool
	WorkDir      string // fixtures and span files go here
}

func (c runConfig) sizes() sizes {
	if c.Tiny {
		return tinySizes
	}
	return fullSizes
}

// workloadResult is what one workload's process hands back.
type workloadResult struct {
	Name      string             `json:"name"`
	Noisy     bool               `json:"noisy"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	FirstErr  string             `json:"first_error,omitempty"`
	Metrics   map[string]float64 `json:"metrics"`
}

// tracedOp names the spans (and samples) of the workload's own op in the
// traced pass.
const tracedOp = "op"

// handlerTraced is implemented by workloads whose op crosses into another
// goroutine that records a child span.
type handlerTraced interface {
	traceNext(tr *tracer, parent, op int)
	waitHandler()
}

// runWorkload performs one run in this process: set-up, warm-up, the
// untraced timed phase the end-to-end metrics come from, then (unless
// cfg.Trace is 0) the traced pass the per-layer metrics come from, with the
// control read throughout (see meter). A run whose ops fail still returns its result; err is for
// runs that could not be completed or are not the workload they claim.
func runWorkload(ctx context.Context, cfg runConfig) (workloadResult, error) {
	res := workloadResult{Name: cfg.Workload}
	sz := cfg.sizes()
	m := newMetricSet()
	ctl, err := newMeter()
	if err != nil {
		return res, err
	}
	move0 := ctl.memmove(8 * sz.NativeSize)
	started, stolenAtStart := time.Now(), stealSeconds()
	if err := ctl.burst(); err != nil {
		return res, err
	}

	w, err := newWorkload(cfg.Workload, cfg.Seed, sz, cfg.WorkDir, ctl.tick)
	if err != nil {
		return res, err
	}
	defer w.Close()
	st, err := w.Setup(ctx)
	if err != nil {
		return res, fmt.Errorf("%s: set-up: %w", cfg.Workload, err)
	}
	setupOurs := oursShare(stealSeconds()-stolenAtStart, time.Since(started))

	timedFor := cfg.Seconds
	if cfg.Trace == 1 {
		timedFor /= 3 // the per-layer run only needs the phase's counters and a throughput to compare with
	}
	warm, next := runPhase(ctx, w, 0, seconds(cfg.Seconds/6), ctl.tick)
	if err := w.Mark(); err != nil {
		return res, err
	}
	timedFrom, ctlCPU, stolenAtTimed := time.Now(), ctl.cpu, stealSeconds()
	timed, next := runPhase(ctx, w, next, seconds(timedFor), ctl.tick)
	timedTo := time.Now()
	timedOurs := oursShare(stealSeconds()-stolenAtTimed, timedTo.Sub(timedFrom))
	timed.CPU -= ctl.cpu - ctlCPU // the control's bursts are not the program's cost
	rss, err := peakRSSMB()
	if err != nil {
		return res, err
	}
	finishErr := w.Finish(m, &timed)

	res.Attempted, res.Failed = warm.Attempted+timed.Attempted, warm.Failed+timed.Failed
	if firstErr := errors.Join(warm.FirstErr, timed.FirstErr); firstErr != nil {
		res.FirstErr = firstErr.Error()
	}
	if len(timed.Lat) == 0 {
		return res, fmt.Errorf("%s: no op succeeded in the timed phase: %s", cfg.Workload, res.FirstErr)
	}
	// Speed of this machine's CPUs during each stretch, as a share of the
	// reference machine's: times are multiplied by it, rates divided. Sums
	// of wall time (throughput, set-up) are also multiplied by the share of
	// the stretch in which the CPUs were this machine's at all; the median
	// op met no theft and CPU time does not count it.
	setupSpeed := ctl.mean(started, timedFrom) / refGunzipMBps
	timedSpeed := ctl.mean(timedFrom, timedTo) / refGunzipMBps
	payloadGB := float64(timed.Payload) / 1e9
	m.emit("throughput_MBps", timed.MBps()/timedSpeed/timedOurs)
	m.emit("op_p50_ms", quantile(timed.Lat, 0.50)*1e3*timedSpeed)
	m.emit("op_p95_ms", quantile(timed.Lat, 0.95)*1e3*timedSpeed)
	m.emit("cpu_s_per_GB", timed.CPU/payloadGB*timedSpeed)
	m.emit("alloc_MB_per_GB", float64(timed.Alloc)/1e6/payloadGB)
	m.emit("peak_rss_MB", rss)
	m.emit("ratio", w.Ratio())
	m.emit("setup_s", st.total()*setupSpeed*setupOurs)
	m.emit("fail_share", float64(res.Failed)/float64(res.Attempted))
	m.emit("harness.ops", float64(len(timed.Lat)))
	m.emit("harness.raw_throughput_MBps", timed.MBps())
	m.emit("harness.timed_speed", timedSpeed)
	m.emit("harness.setup_speed", setupSpeed)
	m.emit("harness.timed_stolen_share", 1-timedOurs)
	m.emit("harness.setup_stolen_share", 1-setupOurs)
	m.emit("setup.gen_s", st.Gen)
	m.emit("setup.compress_s", st.Compress)
	m.emit("setup.warm_s", st.Warm)
	if finishErr != nil {
		return res, finishErr
	}

	if cfg.Trace != 0 && res.Failed == 0 {
		p := newPass(sz, seconds(cfg.TraceSeconds), m)
		if err := w.Mark(); err != nil {
			return res, err
		}
		tracedMBps, err := tracedOps(ctx, p, w, next)
		if err == nil {
			err = w.Probe(ctx, p)
		}
		if err != nil {
			return res, fmt.Errorf("%s: traced pass: %w", cfg.Workload, err)
		}
		m.emit("harness.trace_overhead_share", 1-tracedMBps/timed.MBps())
		if err := p.tr.write(filepath.Join(cfg.WorkDir, cfg.Workload+".trace.json")); err != nil {
			return res, err
		}
	}

	// Drift is the gunzip control after the middle of the timed phase against
	// before it, each side a mean over dozens of bursts. The copy is two
	// 30 ms snapshots; on a shared host any two of those differ by more.
	if err := ctl.burst(); err != nil {
		return res, err
	}
	move1 := ctl.memmove(8 * sz.NativeSize)
	mid := timedFrom.Add(timedTo.Sub(timedFrom) / 2)
	drift := math.Abs(ctl.mean(mid, time.Now())/ctl.mean(started, mid) - 1)
	m.emit("control.memmove_MBps", (move0+move1)/2)
	m.emit("control.stdlib_gunzip_MBps", ctl.mean(started, time.Now()))
	m.emit("control.drift", drift)
	res.Noisy = drift > noisyDrift && !cfg.Tiny // tiny phases hold a burst or two and measure nothing
	m.zeroRest()
	res.Metrics = m.values
	return res, nil
}

// oursShare is the share of a stretch of wall time in which the machine's
// CPUs were its own: one less what the hypervisor took, per CPU. It is the
// least correction theft can call for, exact for work spread over every
// CPU; a serial stretch loses up to NumCPU times as much.
func oursShare(stolen float64, wall time.Duration) float64 {
	return 1 - min(stolen/(float64(runtime.NumCPU())*wall.Seconds()), 0.9)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// tracedOps opens the traced pass: the workload's own ops, continuing its
// schedule, each under a span. Their throughput against the untraced timed
// phase is what the harness's tracing costs.
func tracedOps(ctx context.Context, p *pass, w workload, first int) (float64, error) {
	ht, _ := w.(handlerTraced)
	var payload int64
	var busy float64
	err := p.reps(0.12, 1, func(rep int) error {
		i := first + rep
		id := p.tr.begin(tracedOp, -1, i)
		if ht != nil {
			ht.traceNext(p.tr, id, i)
		}
		n, err := w.Do(ctx, i)
		if err != nil {
			return err
		}
		if ht != nil {
			ht.waitHandler()
		}
		d := p.tr.end(id).Seconds()
		p.add(tracedOp, 0, d)
		payload += n
		busy += d
		return w.Check(ctx, i)
	})
	return perSecond(float64(payload), busy), err
}

// meter is the control: two things this repository cannot change, read
// throughout the run. The standard library's gunzip of a fixed file, in
// bursts of a few milliseconds on every CPU at once, is taken before
// set-up and then between ops about five times a second; a large memmove
// (what the hardware allows) is taken at the start and the end.
//
// The gunzip readings do two jobs. Their drift over the run marks a run
// noisy. And their mean over a stretch of the run scales that stretch's
// timed metrics to a reference machine, one on which the control reads
// refGunzipMBps: on the machine this was built on, minutes-long episodes
// slow every CPU-bound thing, set-up and control alike, by a quarter, and
// unscaled medians taken ten minutes apart differ by more than any bound
// worth having (README, "Measured spreads").
type meter struct {
	gz      []byte
	rawLen  int
	lanes   []meterLane
	every   time.Duration
	last    time.Time
	samples []meterSample
	cpu     float64 // process CPU seconds the bursts themselves have used
}

type meterLane struct {
	zr      *gzip.Reader
	scratch []byte
}

type meterSample struct {
	at   time.Time
	mbps float64
}

const (
	refGunzipMBps = 150.0
	burstRawBytes = 1 << 20
)

func newMeter() (*meter, error) {
	m := &meter{rawLen: burstRawBytes, every: 200 * time.Millisecond}
	var buf bytes.Buffer
	zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
	if err != nil {
		return nil, err
	}
	if _, err := zw.Write(datagen.WikiXML(m.rawLen, 0xc0ffee)); err != nil {
		return nil, err
	}
	if err := zw.Close(); err != nil {
		return nil, err
	}
	m.gz = buf.Bytes()
	for range nproc() {
		zr, err := gzip.NewReader(bytes.NewReader(m.gz))
		if err != nil {
			return nil, err
		}
		m.lanes = append(m.lanes, meterLane{zr: zr, scratch: make([]byte, 64<<10)})
	}
	return m, nil
}

// burst gunzips the control file once on every lane concurrently and
// records the mean speed. Call it only while the program under test is idle.
func (m *meter) burst() error {
	cpu0 := cpuSeconds()
	speeds := make([]float64, len(m.lanes))
	errs := make([]error, len(m.lanes))
	var wg sync.WaitGroup
	for i := range m.lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := &m.lanes[i]
			t0 := time.Now()
			if errs[i] = lane.zr.Reset(bytes.NewReader(m.gz)); errs[i] != nil {
				return
			}
			n, err := io.CopyBuffer(onlyWriter{io.Discard}, lane.zr, lane.scratch)
			if err == nil && n != int64(m.rawLen) {
				err = fmt.Errorf("control gunzip: %d bytes, want %d", n, m.rawLen)
			}
			speeds[i], errs[i] = perSecond(float64(m.rawLen), time.Since(t0).Seconds()), err
		}()
	}
	wg.Wait()
	m.cpu += cpuSeconds() - cpu0
	m.last = time.Now()
	var sum float64
	for _, s := range speeds {
		sum += s
	}
	m.samples = append(m.samples, meterSample{at: m.last, mbps: sum / float64(len(speeds))})
	return errors.Join(errs...)
}

// tick takes a burst when one is due. The closed loop calls it between ops
// and set-up between objects.
func (m *meter) tick() {
	if time.Since(m.last) >= m.every {
		_ = m.burst() // a failing control shows as a missing sample; the first burst's error is checked
	}
}

// mean is the mean reading over [from, to], or over the whole run when no
// burst fell inside (sub-second tiny phases).
func (m *meter) mean(from, to time.Time) float64 {
	var in, all, n float64
	for _, s := range m.samples {
		all += s.mbps
		if !s.at.Before(from) && !s.at.After(to) {
			in += s.mbps
			n++
		}
	}
	if n == 0 {
		return all / float64(len(m.samples))
	}
	return in / n
}

// memmove is MB/s of a large copy, the median of several after two
// discarded ones. The buffers live only for the call, so they never sit
// under a workload's peak RSS.
func (m *meter) memmove(bytes int) float64 {
	src, dst := make([]byte, bytes), make([]byte, bytes)
	for i := range src {
		src[i] = byte(i)
	}
	var times []float64
	for rep := 0; rep < 11; rep++ {
		t0 := time.Now()
		copy(dst, src)
		times = append(times, time.Since(t0).Seconds())
	}
	return perSecond(float64(bytes), median(times[2:]))
}

// onlyWriter hides io.Discard's ReadFrom, which would bring its own buffer.
type onlyWriter struct{ io.Writer }
