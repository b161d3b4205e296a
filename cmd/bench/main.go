// Command bench runs the repository's figure and host-engine benchmarks
// in-process and writes a machine-readable BENCH_<n>.json so the performance
// trajectory is tracked from PR to PR (see EXPERIMENTS.md).
//
//	go run ./cmd/bench                 # full run, writes BENCH_10.json
//	go run ./cmd/bench -short          # CI smoke: small corpus, 1 iteration
//	go run ./cmd/bench -o results.json # custom output path
//
// Device-engine rows report the modeled simulator throughput ("sim-GB/s",
// the paper-figure quantity); host rows report measured wall-clock GB/s.
package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/loadgen"
	"gompresso/internal/perf"
	"gompresso/internal/server"
)

// seedHostBitMBps is the pre-optimization BenchmarkHostEngine_Bit
// throughput measured at the seed commit (byte-at-a-time match copies,
// TokenStream materialization): mean of three 20-iteration runs on the PR-1
// build machine. Kept here so every BENCH_<n>.json carries the baseline the
// fast path is compared against.
const seedHostBitMBps = 90.6

type result struct {
	Name     string  `json:"name"`
	SimGBps  float64 `json:"sim_gbps,omitempty"`
	HostGBps float64 `json:"host_gbps,omitempty"`
	HitRate  float64 `json:"hit_rate,omitempty"` // ServeRange rows: decoded-block cache hit rate
	// ServeLatency rows: open-loop load-harness quantiles (milliseconds)
	// and error/shed rates for one phase.
	P50Ms     float64 `json:"p50_ms,omitempty"`
	P95Ms     float64 `json:"p95_ms,omitempty"`
	P99Ms     float64 `json:"p99_ms,omitempty"`
	ErrorRate float64 `json:"error_rate,omitempty"`
	ShedRate  float64 `json:"shed_rate,omitempty"`
}

type report struct {
	Generated    string   `json:"generated"`
	GoVersion    string   `json:"go_version"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	CorpusBytes  int      `json:"corpus_bytes"`
	Iterations   int      `json:"iterations"`
	Benchmarks   []result `json:"benchmarks"`
	HostFastPath struct {
		SeedBaselineMBps float64 `json:"seed_baseline_mbps"`
		OptimizedMBps    float64 `json:"optimized_mbps"`
		SpeedupVsSeed    float64 `json:"speedup_vs_seed"`
	} `json:"host_fast_path"`
	// ServeLatency cross-checks the load harness's ground-truth p99
	// against the server's own /metrics histogram: both are bucket upper
	// bounds, so agreement means the same (or an adjacent) refined
	// sub-bucket of the server's 4-per-octave histogram.
	ServeLatency *serveLatencySummary `json:"serve_latency,omitempty"`
}

type serveLatencySummary struct {
	RPS          float64 `json:"rps"`
	DurationS    float64 `json:"duration_s"`
	Seed         uint64  `json:"seed"`
	HarnessP99Ms float64 `json:"harness_p99_ms"`
	MetricsP99Ms float64 `json:"metrics_p99_ms"`
	// SubBucketsApart is the distance between the two p99 estimates in
	// units of the refined histogram's sub-bucket ratio (1.25×):
	// |log(harness/metrics)| / log(1.25). Agree means ≤ 1 — the
	// distance is within one sub-bucket width, measured in value space
	// rather than by bucket index so a hair's-width gap straddling a
	// bucket boundary doesn't read as a two-bucket miss.
	SubBucketsApart float64 `json:"sub_buckets_apart"`
	Agree           bool    `json:"agree"`
}

func main() {
	size := flag.Int("size", 8<<20, "corpus size in bytes")
	iters := flag.Int("iters", 3, "timed iterations per benchmark (best is reported)")
	out := flag.String("o", "BENCH_10.json", "output JSON path")
	short := flag.Bool("short", false, "smoke mode: 2 MB corpus, 1 iteration")
	flag.Parse()
	if *short {
		*size = 2 << 20
		*iters = 1
	}

	wiki := datagen.WikiXML(*size, 1)

	compress := func(variant gompresso.Variant, de gompresso.DEMode, blockSize int) []byte {
		comp, _, err := gompresso.Compress(wiki, gompresso.Options{Variant: variant, DE: de, BlockSize: blockSize})
		if err != nil {
			fatal("compress: %v", err)
		}
		return comp
	}
	byteOff := compress(gompresso.VariantByte, gompresso.DEOff, 0)
	byteDE := compress(gompresso.VariantByte, gompresso.DEStrict, 0)
	bitDE := compress(gompresso.VariantBit, gompresso.DEStrict, 0)

	// device measures a device-engine configuration: sim-GB/s is modeled,
	// host GB/s is the wall clock of the whole simulated run.
	device := func(name string, comp []byte, strat gompresso.Strategy, pcie gompresso.PCIeMode) result {
		var best result
		for i := 0; i < *iters; i++ {
			start := time.Now()
			outBuf, ds, err := gompresso.Decompress(comp, gompresso.DecompressOptions{
				Engine: gompresso.EngineDevice, Strategy: strat, PCIe: pcie, TileTo: 1 << 30,
			})
			if err != nil {
				fatal("%s: %v", name, err)
			}
			if i == 0 && !bytes.Equal(outBuf, wiki) {
				fatal("%s: roundtrip mismatch", name)
			}
			host := float64(len(wiki)) / time.Since(start).Seconds() / 1e9
			sim := float64(ds.RawSize) / ds.SimSeconds / 1e9
			if host > best.HostGBps {
				best = result{Name: name, SimGBps: sim, HostGBps: host}
			}
		}
		return best
	}
	// host measures a host-engine decompression closure.
	host := func(name string, fn func() int) result {
		var best float64
		for i := 0; i < *iters; i++ {
			start := time.Now()
			n := fn()
			if gbps := float64(n) / time.Since(start).Seconds() / 1e9; gbps > best {
				best = gbps
			}
		}
		return result{Name: name, HostGBps: best}
	}
	decompressHost := func(comp []byte) int {
		outBuf, _, err := gompresso.Decompress(comp, gompresso.DecompressOptions{
			Engine: gompresso.EngineHost,
		})
		if err != nil {
			fatal("host decompress: %v", err)
		}
		return len(outBuf)
	}

	var rep report
	rep.Generated = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.CorpusBytes = *size
	rep.Iterations = *iters

	rep.Benchmarks = append(rep.Benchmarks,
		device("Fig09a_Wikipedia_SC", byteOff, gompresso.SC, gompresso.PCIeNone),
		device("Fig09a_Wikipedia_MRR", byteOff, gompresso.MRR, gompresso.PCIeNone),
		device("Fig09a_Wikipedia_DE", byteDE, gompresso.DE, gompresso.PCIeNone),
		device("Fig12_GompBit_InOut", bitDE, gompresso.DE, gompresso.PCIeInOut),
		device("Fig13_GompBit_InOut", bitDE, gompresso.DE, gompresso.PCIeInOut),
	)

	fast := host("HostEngine_Bit", func() int { return decompressHost(bitDE) })
	stream := func(workers int) int {
		r, err := gompresso.NewReaderWith(bytes.NewReader(bitDE), gompresso.ReaderOptions{Workers: workers})
		if err != nil {
			fatal("stream: %v", err)
		}
		defer r.Close()
		n, err := io.Copy(io.Discard, r)
		if err != nil {
			fatal("stream: %v", err)
		}
		return int(n)
	}
	rep.Benchmarks = append(rep.Benchmarks, fast,
		host("HostEngine_Byte", func() int { return decompressHost(byteDE) }),
		// StreamReader_Bit keeps PR-1's name and configuration (default
		// options) so the series stays comparable across BENCH_<n>.json;
		// the _W<n> rows are the parallel pipeline at fixed worker counts.
		host("StreamReader_Bit", func() int { return stream(0) }),
		host("StreamReader_Bit_W1", func() int { return stream(1) }),
		host("StreamReader_Bit_W2", func() int { return stream(2) }),
	)
	if p := runtime.GOMAXPROCS(0); p > 2 {
		rep.Benchmarks = append(rep.Benchmarks,
			host(fmt.Sprintf("StreamReader_Bit_W%d", p), func() int { return stream(p) }))
	}

	// Compression-side scaling: the streaming Writer at fixed worker
	// counts, plus the one-shot encoder as the reference point. The first
	// W1 run cross-checks that the Writer's container is byte-identical to
	// Compress.
	writerCodec := func(workers int) *gompresso.Codec {
		c, err := gompresso.New(
			gompresso.WithVariant(gompresso.VariantBit),
			gompresso.WithDE(gompresso.DEStrict),
			gompresso.WithWorkers(workers),
		)
		if err != nil {
			fatal("writer codec: %v", err)
		}
		return c
	}
	var wbuf bytes.Buffer
	w := writerCodec(1).NewWriter(&wbuf)
	if _, err := w.Write(wiki); err != nil {
		fatal("writer: %v", err)
	}
	if err := w.Close(); err != nil {
		fatal("writer: %v", err)
	}
	if !bytes.Equal(wbuf.Bytes(), bitDE) {
		fatal("Writer output differs from one-shot Compress")
	}
	wbuf = bytes.Buffer{}
	writer := func(workers int) int {
		w := writerCodec(workers).NewWriter(io.Discard)
		if _, err := w.Write(wiki); err != nil {
			fatal("writer: %v", err)
		}
		if err := w.Close(); err != nil {
			fatal("writer: %v", err)
		}
		return len(wiki)
	}
	oneShot := func() int {
		if _, _, err := gompresso.Compress(wiki, gompresso.Options{
			Variant: gompresso.VariantBit, DE: gompresso.DEStrict,
		}); err != nil {
			fatal("compress: %v", err)
		}
		return len(wiki)
	}
	rep.Benchmarks = append(rep.Benchmarks,
		host("CompressOneShot_Bit", oneShot),
		host("Writer_Bit_W1", func() int { return writer(1) }),
		host("Writer_Bit_W2", func() int { return writer(2) }),
	)
	if p := runtime.GOMAXPROCS(0); p > 2 {
		rep.Benchmarks = append(rep.Benchmarks,
			host(fmt.Sprintf("Writer_Bit_W%d", p), func() int { return writer(p) }))
	}

	// Foreign-format serving: the same corpus as a stdlib-compressed .gz,
	// decoded by the two-pass deflate pipeline at fixed worker counts,
	// against the single-threaded compress/gzip baseline. The first run
	// cross-checks byte identity with the stdlib decoder.
	var gzBuf bytes.Buffer
	gzw := gzip.NewWriter(&gzBuf)
	if _, err := gzw.Write(wiki); err != nil {
		fatal("gzip: %v", err)
	}
	if err := gzw.Close(); err != nil {
		fatal("gzip: %v", err)
	}
	gzData := gzBuf.Bytes()
	// Both sides materialize the full output and read gzData in place
	// (Codec.Decompress hands the slice to the decoder directly, where
	// NewReader on an io.Reader would buffer a copy), so the comparison
	// measures the decoders, not allocation artifacts.
	gzStdlib := func() int {
		r, err := gzip.NewReader(bytes.NewReader(gzData))
		if err != nil {
			fatal("stdlib gunzip: %v", err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			fatal("stdlib gunzip: %v", err)
		}
		return len(out)
	}
	gzOurs := func(workers int) int {
		c, err := gompresso.New(gompresso.WithFormat(gompresso.FormatGzip), gompresso.WithWorkers(workers))
		if err != nil {
			fatal("gzip codec: %v", err)
		}
		out, _, err := c.Decompress(gzData)
		if err != nil {
			fatal("gzip decompress: %v", err)
		}
		return len(out)
	}
	{
		c, err := gompresso.New(gompresso.WithFormat(gompresso.FormatGzip), gompresso.WithWorkers(2))
		if err != nil {
			fatal("gzip codec: %v", err)
		}
		out, _, err := c.Decompress(gzData)
		if err != nil || !bytes.Equal(out, wiki) {
			fatal("gzip decode differs from stdlib (%v)", err)
		}
	}
	rep.Benchmarks = append(rep.Benchmarks,
		host("GzipStdlib", gzStdlib),
		host("Gzip_Bit_W1", func() int { return gzOurs(1) }),
		host("Gzip_Bit_W2", func() int { return gzOurs(2) }),
		host("Gzip_Bit_WMAX", func() int { return gzOurs(runtime.GOMAXPROCS(0)) }),
	)

	// Serving layer: range GETs against an in-process `serve` daemon over
	// an indexed container. Cold builds a fresh server (empty cache) per
	// iteration and sweeps the whole object in 1 MiB ranges — every block
	// decodes once, through cache misses. Hot re-requests one range from
	// a warmed server, so blocks come from the decoded-block cache; its
	// row also records the cache hit rate. Single-run, like everything in
	// this file — never concurrently with tests on a small runner.
	serveDir, err := os.MkdirTemp("", "gompresso-bench-serve")
	if err != nil {
		fatal("serve dir: %v", err)
	}
	defer os.RemoveAll(serveDir)
	idxComp, _, err := gompresso.Compress(wiki, gompresso.Options{
		Variant: gompresso.VariantBit, DE: gompresso.DEStrict, Index: true,
	})
	if err != nil {
		fatal("serve compress: %v", err)
	}
	if err := os.WriteFile(filepath.Join(serveDir, "corpus.gpz"), idxComp, 0o644); err != nil {
		fatal("serve fixture: %v", err)
	}
	newServerOpts := func(opts server.Options) (*server.Server, *httptest.Server) {
		opts.Root = serveDir
		opts.CacheBytes = 256 << 20
		s, err := server.New(opts)
		if err != nil {
			fatal("server: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}
	// The default serving rows run with full observability — tracing on
	// and the access log rendering to io.Discard — so the headline
	// numbers include the cost every production request pays.
	newServer := func() (*server.Server, *httptest.Server) {
		return newServerOpts(server.Options{AccessLog: io.Discard})
	}
	rangeGet := func(base, name string, off, n int) int {
		req, err := http.NewRequest(http.MethodGet, base+"/"+name, nil)
		if err != nil {
			fatal("serve request: %v", err)
		}
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", off, off+n-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatal("serve get: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusPartialContent {
			fatal("serve get: status %d", resp.StatusCode)
		}
		got, err := io.ReadAll(resp.Body)
		if err != nil {
			fatal("serve body: %v", err)
		}
		return len(got)
	}
	const rangeLen = 1 << 20
	{ // byte-identity cross-check before timing anything
		_, ts := newServer()
		req, _ := http.NewRequest(http.MethodGet, ts.URL+"/corpus.gpz", nil)
		req.Header.Set("Range", fmt.Sprintf("bytes=%d-%d", 12345, 12345+rangeLen-1))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			fatal("serve check: %v", err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		ts.Close()
		if !bytes.Equal(got, wiki[12345:12345+rangeLen]) {
			fatal("served range differs from corpus")
		}
	}
	cold := host("ServeRange_Cold", func() int {
		_, ts := newServer()
		defer ts.Close()
		total := 0
		for off := 0; off < len(wiki); off += rangeLen {
			n := rangeLen
			if off+n > len(wiki) {
				n = len(wiki) - off
			}
			total += rangeGet(ts.URL, "corpus.gpz", off, n)
		}
		return total
	})
	hotSrv, hotTS := newServer()
	rangeGet(hotTS.URL, "corpus.gpz", 0, rangeLen) // warm the cache
	hot := host("ServeRange_Hot", func() int {
		total := 0
		for i := 0; i < 8; i++ {
			total += rangeGet(hotTS.URL, "corpus.gpz", 0, rangeLen)
		}
		return total
	})
	hot.HitRate = hotSrv.Codec().CacheStats().HitRate()
	hotTS.Close()
	// Same hot sweep with observability disabled: the delta between this
	// row and ServeRange_Hot is the whole tracing + access-log overhead
	// (budget: within 3% on the hot path).
	_, noObsTS := newServerOpts(server.Options{NoTrace: true})
	rangeGet(noObsTS.URL, "corpus.gpz", 0, rangeLen) // warm the cache
	hotNoObs := host("ServeRange_Hot_NoObs", func() int {
		total := 0
		for i := 0; i < 8; i++ {
			total += rangeGet(noObsTS.URL, "corpus.gpz", 0, rangeLen)
		}
		return total
	})
	noObsTS.Close()
	rep.Benchmarks = append(rep.Benchmarks, cold, hot, hotNoObs)

	// Foreign random access (PR 7): the .gz corpus behind a checkpoint
	// seek index. GzipReadAt drives the index-backed ReaderAt directly —
	// a sweep of 64 KiB reads that decodes each ~1 MiB chunk once.
	gzIdx := func() *gompresso.SeekIndex {
		c, err := gompresso.New()
		if err != nil {
			fatal("gz index codec: %v", err)
		}
		r, err := c.NewReader(bytes.NewReader(gzData))
		if err != nil {
			fatal("gz index reader: %v", err)
		}
		defer r.Close()
		if !r.CollectForeignIndex(1 << 20) {
			fatal("CollectForeignIndex refused the bench gzip")
		}
		if _, err := io.Copy(io.Discard, r); err != nil {
			fatal("gz index decode: %v", err)
		}
		return r.ForeignIndex()
	}()
	gzReadAt := host("GzipReadAt", func() int {
		c, err := gompresso.New(gompresso.WithCache(256 << 20))
		if err != nil {
			fatal("gz readat codec: %v", err)
		}
		ra, err := c.NewReaderAtWithIndex(bytes.NewReader(gzData), int64(len(gzData)), gzIdx)
		if err != nil {
			fatal("gz readat: %v", err)
		}
		buf := make([]byte, 64<<10)
		total := 0
		for off := 0; off+len(buf) <= len(wiki); off += 256 << 10 {
			n, err := ra.ReadAt(buf, int64(off))
			if err != nil && err != io.EOF {
				fatal("gz readat at %d: %v", off, err)
			}
			if off == 0 && !bytes.Equal(buf[:n], wiki[:n]) {
				fatal("gz readat bytes differ")
			}
			total += n
		}
		return total
	})
	rep.Benchmarks = append(rep.Benchmarks, gzReadAt)

	// Ranged GETs on the served .gz. Cold: fresh in-memory server, one
	// range — the request pays the full counting decode that captures the
	// index (the PR 5 sequential-fallback cost, paid once instead of per
	// request). Warm: fresh server loading a persisted sidecar, sweeping
	// the object in 1 MiB ranges through chunk decodes. Hot: repeated
	// range on a warmed server, served from the decoded-block cache.
	if err := os.WriteFile(filepath.Join(serveDir, "corpus.txt.gz"), gzData, 0o644); err != nil {
		fatal("gz fixture: %v", err)
	}
	gzIdxDir, err := os.MkdirTemp("", "gompresso-bench-gzidx")
	if err != nil {
		fatal("gz index dir: %v", err)
	}
	defer os.RemoveAll(gzIdxDir)
	newGzServer := func(indexDir string) (*server.Server, *httptest.Server) {
		s, err := server.New(server.Options{
			Root: serveDir, CacheBytes: 256 << 20, IndexDir: indexDir, IndexSpacing: 1 << 20, Logf: nil,
		})
		if err != nil {
			fatal("gz server: %v", err)
		}
		ts := httptest.NewServer(s.Handler())
		return s, ts
	}
	gzCold := host("ServeRangeGz_Cold", func() int {
		_, ts := newGzServer("")
		defer ts.Close()
		return rangeGet(ts.URL, "corpus.txt.gz", 12345, rangeLen)
	})
	{ // build the persistent sidecar warm/hot servers will load
		_, ts := newGzServer(gzIdxDir)
		rangeGet(ts.URL, "corpus.txt.gz", 0, 4096)
		ts.Close()
	}
	gzWarm := host("ServeRangeGz_Warm", func() int {
		_, ts := newGzServer(gzIdxDir)
		defer ts.Close()
		total := 0
		for off := 0; off < len(wiki); off += rangeLen {
			n := rangeLen
			if off+n > len(wiki) {
				n = len(wiki) - off
			}
			total += rangeGet(ts.URL, "corpus.txt.gz", off, n)
		}
		return total
	})
	gzHotSrv, gzHotTS := newGzServer(gzIdxDir)
	rangeGet(gzHotTS.URL, "corpus.txt.gz", 0, rangeLen) // warm the cache
	gzHot := host("ServeRangeGz_Hot", func() int {
		total := 0
		for i := 0; i < 8; i++ {
			total += rangeGet(gzHotTS.URL, "corpus.txt.gz", 0, rangeLen)
		}
		return total
	})
	gzHot.HitRate = gzHotSrv.Codec().CacheStats().HitRate()
	gzHotTS.Close()
	rep.Benchmarks = append(rep.Benchmarks, gzCold, gzWarm, gzHot)

	// Serving latency under open-loop load (PR 9): a seeded zipfian run
	// from internal/loadgen against a fresh self-hosted server, reported
	// per phase. Unlike the throughput rows above, these are quantiles of
	// individual request latencies measured from each request's intended
	// arrival instant — queueing delay included. The run then cross-checks
	// the harness p99 against the server's own /metrics histogram; both
	// are bucket upper bounds, so they must land in the same or an
	// adjacent sub-bucket of the server's coarser 4-per-octave histogram.
	{
		ltDir, err := os.MkdirTemp("", "gompresso-bench-load")
		if err != nil {
			fatal("load dir: %v", err)
		}
		defer os.RemoveAll(ltDir)
		const ltSeed = 9
		spec := loadgen.CorpusSpec{Objects: 16, MinSize: 64 << 10, MaxSize: 1 << 20, Seed: ltSeed}
		ltRPS, ltDur := 40.0, 15*time.Second
		if *short {
			spec.Objects, spec.MaxSize = 8, 256<<10
			ltRPS, ltDur = 25.0, 6*time.Second
		}
		objs, err := loadgen.BuildCorpus(ltDir, spec)
		if err != nil {
			fatal("load corpus: %v", err)
		}
		ltSrv, err := server.New(server.Options{Root: ltDir, CacheBytes: 64 << 20, Logf: nil})
		if err != nil {
			fatal("load server: %v", err)
		}
		ltTS := httptest.NewServer(ltSrv.Handler())
		// Decode-heavy mix: ranges large enough that decode time dominates
		// per-request HTTP overhead, so harness service latency and the
		// server's handler-time histogram describe the same quantity.
		ltRep, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  ltTS.URL,
			Objects:  objs,
			RPS:      ltRPS,
			Duration: ltDur,
			ZipfS:    1.1,
			Ranges: []loadgen.RangeClass{
				{Weight: 0.7, Min: 128 << 10, Max: 512 << 10},
				{Weight: 0.3, Min: 512 << 10, Max: 1 << 20},
			},
			Deadline: 5 * time.Second,
			Seed:     ltSeed,
		})
		if err != nil {
			fatal("load run: %v", err)
		}
		for _, p := range ltRep.Phases {
			name := "ServeLatency_" + string(p.Phase[0]-'a'+'A') + p.Phase[1:]
			rep.Benchmarks = append(rep.Benchmarks, result{
				Name:      name,
				P50Ms:     p.P50Ms,
				P95Ms:     p.P95Ms,
				P99Ms:     p.P99Ms,
				ErrorRate: p.ErrorRate,
				ShedRate:  p.ShedRate,
			})
		}

		ltTS.Close()

		// Agreement run: a separate decode-heavy, *closed-loop* workload
		// against a fresh server. This is a calibration experiment, not
		// an SLO measurement: the question is whether the server's
		// histogram and the harness's service clock agree on the same
		// requests. Under open-loop concurrency on a 1-vCPU box the tail
		// requests are by construction the most contended ones, where
		// pre-handler goroutine scheduling and post-handler socket-drain
		// time accrue only on the client clock — measured divergence of
		// 1.3-1.4x at p99 regardless of mix. Serial requests make both
		// clocks bracket the same isolated work; the residual gap (request
		// parse, final kernel-buffered drain) stays well inside one
		// sub-bucket when decode dominates, hence the multi-MB ranges.
		agDir, err := os.MkdirTemp("", "gompresso-bench-agree")
		if err != nil {
			fatal("agree dir: %v", err)
		}
		defer os.RemoveAll(agDir)
		agSpec := loadgen.CorpusSpec{Objects: 5, MinSize: 6 << 20, MaxSize: 8 << 20, Seed: ltSeed}
		agRPS, agDur := 15.0, 12*time.Second
		agMix := []loadgen.RangeClass{{Weight: 1, Min: 2 << 20, Max: 6 << 20}}
		if *short {
			// Same object and range sizes as the full run — the residual
			// clock gap is roughly constant, so shrinking the decode would
			// inflate it relative to the bucket width — just fewer of them.
			agSpec.Objects = 4
			agDur = 8 * time.Second
		}
		agObjs, err := loadgen.BuildCorpus(agDir, agSpec)
		if err != nil {
			fatal("agree corpus: %v", err)
		}
		agSrv, err := server.New(server.Options{Root: agDir, CacheBytes: 64 << 20, Logf: nil})
		if err != nil {
			fatal("agree server: %v", err)
		}
		agTS := httptest.NewServer(agSrv.Handler())
		agRep, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  agTS.URL,
			Objects:  agObjs,
			RPS:      agRPS,
			Duration: agDur,
			ZipfS:    1.1,
			Ranges:   agMix,
			Deadline: 10 * time.Second,
			Seed:     ltSeed,
			Closed:   true,
		})
		if err != nil {
			fatal("agree run: %v", err)
		}
		metricsP99 := func() float64 {
			resp, err := http.Get(agTS.URL + "/metrics?format=json")
			if err != nil {
				fatal("metrics: %v", err)
			}
			defer resp.Body.Close()
			var m map[string]float64
			if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
				fatal("metrics decode: %v", err)
			}
			return m["request_latency_ns_p99"]
		}()
		agTS.Close()
		// Compare service latency (clocked from the actual send), not the
		// open-loop headline number: dispatch lag is real workload-visible
		// queueing but the server's histogram cannot see it.
		harnessNs := agRep.Overall.ServiceP99Ms * 1e6
		bLo, bHi := perf.BucketBounds(int64(metricsP99) - 1)
		apart := math.Abs(math.Log(harnessNs/metricsP99)) / math.Log(float64(bHi)/float64(bLo))
		rep.ServeLatency = &serveLatencySummary{
			RPS:             agRPS,
			DurationS:       agDur.Seconds(),
			Seed:            ltSeed,
			HarnessP99Ms:    agRep.Overall.ServiceP99Ms,
			MetricsP99Ms:    metricsP99 / 1e6,
			SubBucketsApart: apart,
			Agree:           apart <= 1,
		}
		if !rep.ServeLatency.Agree {
			// Recorded, not fatal: on a loaded 1-vCPU runner the harness
			// clock legitimately includes client-side overhead the server
			// histogram cannot see.
			fmt.Fprintf(os.Stderr, "bench: WARNING: harness p99 %.2fms vs metrics p99 %.2fms (%.2f sub-buckets apart)\n",
				rep.ServeLatency.HarnessP99Ms, rep.ServeLatency.MetricsP99Ms, apart)
		}
	}

	rep.HostFastPath.SeedBaselineMBps = seedHostBitMBps
	rep.HostFastPath.OptimizedMBps = fast.HostGBps * 1000
	rep.HostFastPath.SpeedupVsSeed = rep.HostFastPath.OptimizedMBps / seedHostBitMBps

	data, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		fatal("marshal: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal("write: %v", err)
	}
	fmt.Printf("wrote %s\n", *out)
	for _, r := range rep.Benchmarks {
		switch {
		case r.SimGBps > 0:
			fmt.Printf("  %-28s %8.2f sim-GB/s  %6.3f host-GB/s\n", r.Name, r.SimGBps, r.HostGBps)
		case r.HitRate > 0:
			fmt.Printf("  %-28s %28.3f host-GB/s  hit rate %.3f\n", r.Name, r.HostGBps, r.HitRate)
		case r.P99Ms > 0:
			fmt.Printf("  %-28s p50 %7.2fms  p95 %7.2fms  p99 %7.2fms  err %.4f  shed %.4f\n",
				r.Name, r.P50Ms, r.P95Ms, r.P99Ms, r.ErrorRate, r.ShedRate)
		default:
			fmt.Printf("  %-28s %28.3f host-GB/s\n", r.Name, r.HostGBps)
		}
	}
	if sl := rep.ServeLatency; sl != nil {
		fmt.Printf("  serve latency: harness p99 %.2fms vs /metrics p99 %.2fms (agree=%v, %.2f sub-buckets)\n",
			sl.HarnessP99Ms, sl.MetricsP99Ms, sl.Agree, sl.SubBucketsApart)
	}
	fmt.Printf("  host fast path: %.0f MB/s vs %.0f MB/s seed baseline (%.2fx)\n",
		rep.HostFastPath.OptimizedMBps, seedHostBitMBps, rep.HostFastPath.SpeedupVsSeed)
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
