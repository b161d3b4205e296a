package main

import (
	"fmt"
	"math"
)

// metricDef names one number the benchmark reports. The tables below are
// the single source for BENCHMARK.json (see `benchmark manifest`) and the
// emission check in metricSet; README.md says how each is taken and which
// end-to-end number on which workload it should move.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is how far the median may worsen, as a share of the baseline
	// median, before compare calls it a regression. End-to-end only.
	Bound float64
}

// endToEnd are the numbers a user of the codec or the daemon sees. Every
// workload reports all of them, from the untraced timed phase. The timed
// ones (throughput, latency, CPU, set-up) are scaled to the reference
// machine by the control read during the same stretch of the run, and the
// two sums of wall time (throughput, set-up) are corrected for the time the
// hypervisor took (see runWorkload and meter in run.go).
//
// Their bounds are 0.25, not the 0.10 the issue sized on a quiet box. On the
// machine this was built on a CPU-bound loop changes speed by a quarter
// every few seconds; with the scaling, ten runs of one workload still
// spread by 2-11% of their median (README, "Measured spreads"), and a bound
// is only usable at about three times the spread.
var endToEnd = []metricDef{
	{Name: "throughput_MBps", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_s_per_GB", Unit: "CPU-s/GB", Better: "lower", Bound: 0.25},
	{Name: "alloc_MB_per_GB", Unit: "MB/GB", Better: "lower", Bound: 0.10},
	{Name: "peak_rss_MB", Unit: "MB", Better: "lower", Bound: 0.15},
	{Name: "ratio", Unit: "ratio", Better: "higher", Bound: 0.005},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// Two of the issue's nine user-visible numbers are listed with the
// per-layer metrics in BENCHMARK.json, reported on every run but without a
// relative bound.
//
// fail_share reads 0 on every healthy run; a bound that is a share of the
// median cannot carry that, and the driver counts failures through
// attempted/failed/correct. run, aa and compare gate it at 0 absolute.
//
// op_p95_ms is demoted under the issue's own rule: its A/A spread (up to
// 22% of the median over ten runs, and only seven samples lie beyond it on
// encode-bit at 12 s) does not fit a bound.
var (
	failShare = metricDef{Name: "fail_share", Unit: "fraction", Better: "lower"}
	opP95     = metricDef{Name: "op_p95_ms", Unit: "ms", Better: "lower"}
)

// perLayer are measured in the traced pass only, from outside the program:
// spans around calls into each package's exported functions, and the
// daemon's own /metrics. A layer that does no work on a workload reads 0
// there.
var perLayer = []metricDef{
	failShare,
	opP95,
	{Name: "harness.ops", Unit: "count", Better: "higher"},
	{Name: "harness.raw_throughput_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "harness.timed_speed", Unit: "ratio", Better: "higher"},
	{Name: "harness.setup_speed", Unit: "ratio", Better: "higher"},
	{Name: "harness.timed_stolen_share", Unit: "fraction", Better: "lower"},
	{Name: "harness.setup_stolen_share", Unit: "fraction", Better: "lower"},
	{Name: "harness.trace_overhead_share", Unit: "fraction", Better: "lower"},

	{Name: "format.parse_us_per_MB", Unit: "us/MB", Better: "lower"},
	{Name: "format.bit_decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "format.bit_entropy_share", Unit: "fraction", Better: "lower"},
	{Name: "format.bit_entropy_ref_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "format.byte_decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "format.encode_bit_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "format.scan_index_us_per_MB", Unit: "us/MB", Better: "lower"},
	{Name: "format.bit_decode_zeros_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "format.bit_decode_random_MBps", Unit: "MB/s", Better: "higher"},

	{Name: "huffman.table_build_us_per_block", Unit: "us", Better: "lower"},
	{Name: "huffman.build_lengths_us_per_block", Unit: "us", Better: "lower"},

	{Name: "lz77.copy_replay_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lz77.resolve_ref_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lz77.parse_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lz77.parse_allocs_per_block", Unit: "count", Better: "lower"},
	{Name: "lz77.parse_zeros_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lz77.parse_random_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lz77.parse_phrase_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "lz77.match_share", Unit: "fraction", Better: "higher"},
	{Name: "lz77.avg_match_len", Unit: "B", Better: "higher"},
	{Name: "lz77.seqs_per_KB", Unit: "count", Better: "lower"},

	{Name: "core.encode_block_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "core.oneshot_w1_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "core.overhead_share", Unit: "fraction", Better: "lower"},
	{Name: "core.layers_over_e2e", Unit: "ratio", Better: "higher"},
	{Name: "core.encode_layers_over_e2e", Unit: "ratio", Better: "higher"},

	{Name: "parallel.scaling_eff", Unit: "fraction", Better: "higher"},

	{Name: "reader.stream_w1_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "reader.pipeline_overhead_share", Unit: "fraction", Better: "lower"},
	{Name: "reader.pipeline_overhead_share_w1", Unit: "fraction", Better: "lower"},
	{Name: "reader.stream_bit_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "writer.w1_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "writer.overhead_share", Unit: "fraction", Better: "lower"},

	{Name: "readerat.readat_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "readerat.range_hit_us", Unit: "us", Better: "lower"},

	{Name: "deflate.seq_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "deflate.par_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "deflate.par_speedup", Unit: "ratio", Better: "higher"},
	{Name: "deflate.vs_stdlib", Unit: "ratio", Better: "higher"},
	{Name: "deflate.index_capture_share", Unit: "fraction", Better: "lower"},
	{Name: "deflate.chunk_decode_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "gzidx.encode_ms", Unit: "ms", Better: "lower"},
	{Name: "gzidx.decode_ms", Unit: "ms", Better: "lower"},
	{Name: "gzidx.bytes_per_MB", Unit: "B/MB", Better: "lower"},

	{Name: "blockcache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "blockcache.miss_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "blockcache.hit_rate", Unit: "fraction", Better: "higher"},
	{Name: "blockcache.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "blockcache.coalesced_per_op", Unit: "count", Better: "lower"},

	{Name: "server.stage_queue_wait_share", Unit: "fraction", Better: "lower"},
	{Name: "server.stage_resolve_share", Unit: "fraction", Better: "lower"},
	{Name: "server.stage_source_read_share", Unit: "fraction", Better: "lower"},
	{Name: "server.stage_cache_lookup_share", Unit: "fraction", Better: "lower"},
	{Name: "server.stage_block_decode_share", Unit: "fraction", Better: "lower"},
	{Name: "server.stage_body_write_share", Unit: "fraction", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.transport_share", Unit: "fraction", Better: "lower"},
	{Name: "server.op_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.request_latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.shed_total", Unit: "count", Better: "lower"},
	{Name: "server.errors_total", Unit: "count", Better: "lower"},
	{Name: "server.sequential_decodes_total", Unit: "count", Better: "lower"},
	{Name: "obs.trace_overhead_share", Unit: "fraction", Better: "lower"},

	{Name: "kernels.sim_bit_de_GBps", Unit: "sim-GB/s", Better: "higher"},
	{Name: "kernels.sim_byte_mrr_GBps", Unit: "sim-GB/s", Better: "higher"},
	{Name: "kernels.mrr_rounds_avg", Unit: "count", Better: "lower"},

	{Name: "control.memmove_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "control.stdlib_gunzip_MBps", Unit: "MB/s", Better: "higher"},
	{Name: "control.drift", Unit: "fraction", Better: "lower"},

	{Name: "setup.gen_s", Unit: "s", Better: "lower"},
	{Name: "setup.compress_s", Unit: "s", Better: "lower"},
	{Name: "setup.warm_s", Unit: "s", Better: "lower"},
}

// noisyDrift is the control drift above which a workload's numbers are not
// to be compared: the machine changed speed within the run by more than the
// timed metrics' bound. (The issue's 0.10 was for unscaled numbers; scaled
// A/A runs with drifts up to 0.36 landed within 3.4% of each other.)
const noisyDrift = 0.25

// allMetrics is every declared metric, end-to-end first.
func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

// metricSet collects one workload's values and enforces that each declared
// metric is emitted exactly once, finite, under a declared name.
type metricSet struct {
	known  map[string]bool
	values map[string]float64
}

func newMetricSet() *metricSet {
	m := &metricSet{known: map[string]bool{}, values: map[string]float64{}}
	for _, d := range allMetrics() {
		m.known[d.Name] = true
	}
	return m
}

func (m *metricSet) emit(name string, v float64) {
	switch {
	case !m.known[name]:
		panic(fmt.Sprintf("benchmark: metric %q is not declared in metrics.go", name))
	case math.IsNaN(v) || math.IsInf(v, 0):
		panic(fmt.Sprintf("benchmark: metric %q is not finite: %v", name, v))
	}
	if _, dup := m.values[name]; dup {
		panic(fmt.Sprintf("benchmark: metric %q emitted twice", name))
	}
	m.values[name] = v
}

// zeroRest gives every declared metric no probe emitted the value 0: the
// layer did no work on this workload.
func (m *metricSet) zeroRest() {
	for name := range m.known {
		if _, ok := m.values[name]; !ok {
			m.values[name] = 0
		}
	}
}
