package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// caller is what the closed loop drives: one operation at a time, the next
// issued when the previous has returned and been checked. Do is timed;
// Check is not, and verifies what Do just produced.
type caller interface {
	Do(ctx context.Context, i int) (payload int64, err error)
	Check(ctx context.Context, i int) error
}

// phase is what one closed-loop phase measured.
type phase struct {
	Lat       []float64 // seconds, successful ops only, in issue order
	Payload   int64     // uncompressed bytes of successful ops
	Busy      float64   // sum of op latencies, seconds
	Attempted int
	Failed    int
	CPU       float64 // process user+sys seconds over the phase
	Alloc     uint64  // runtime TotalAlloc delta over the phase
	FirstErr  error
}

// runPhase issues ops first, first+1, ... from one goroutine for d of wall
// time and returns the index of the next op not issued. tick runs between
// ops (the control's bursts). Latency covers Do
// only; CPU and allocation cover the whole process over the phase, the
// harness's own verification included (a fixed share: the schedule is the
// seed's).
func runPhase(ctx context.Context, c caller, first int, d time.Duration, tick func()) (phase, int) {
	var p phase
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0, cpu0 := ms.TotalAlloc, cpuSeconds()
	i := first
	for start := time.Now(); time.Since(start) < d && ctx.Err() == nil; i++ {
		t0 := time.Now()
		n, err := c.Do(ctx, i)
		lat := time.Since(t0).Seconds()
		if err == nil {
			err = c.Check(ctx, i)
		}
		tick()
		p.Attempted++
		p.Busy += lat
		if err != nil {
			p.Failed++
			if p.FirstErr == nil {
				p.FirstErr = fmt.Errorf("op %d: %w", i, err)
			}
			continue
		}
		p.Lat = append(p.Lat, lat)
		p.Payload += n
	}
	p.CPU = cpuSeconds() - cpu0
	runtime.ReadMemStats(&ms)
	p.Alloc = ms.TotalAlloc - alloc0
	return p, i
}

// MBps is payload over the time the caller spent waiting for it.
func (p *phase) MBps() float64 {
	if p.Busy == 0 {
		return 0
	}
	return float64(p.Payload) / 1e6 / p.Busy
}

// cpuSeconds is the process's user+system time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// stealSeconds is the time so far, summed over the CPUs, in which this
// machine wanted to run and the hypervisor ran something else: the eighth
// figure of the first line of /proc/stat, in hundredths of a second. It
// reads 0 where the kernel does not report one.
func stealSeconds() float64 {
	stat, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(stat), "\n")
	if f := strings.Fields(line); len(f) > 8 && f[0] == "cpu" {
		ticks, _ := strconv.ParseFloat(f[8], 64)
		return ticks / 100
	}
	return 0
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// quantile returns the q-quantile of xs by the nearest-rank rule on a
// sorted copy; 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(q*float64(len(s))+0.999999) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median averages the two middle samples of an even count, so two-sample
// sets read as their mean.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}
