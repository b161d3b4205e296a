package loadgen

import (
	"context"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"sync/atomic"
	"testing"
	"time"

	"gompresso/internal/server"
)

// The schedule must replay identically from its seed: same arrival
// instants, same objects, same ranges. This is what makes a regression
// visible across machines and Go releases — "rps 40, seed 7" names one
// exact request sequence.
func TestScheduleDeterministic(t *testing.T) {
	objs := SpecObjects(CorpusSpec{Objects: 16, Seed: 3})
	mk := func() []Request {
		s, err := NewSchedule(objs, 100, 1.1, nil, 42)
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, 500)
		for i := range reqs {
			reqs[i] = s.Next()
		}
		return reqs
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs across replays: %+v vs %+v", i, a[i], b[i])
		}
	}
	// A different seed must actually change the sequence.
	s2, err := NewSchedule(objs, 100, 1.1, nil, 43)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 0; i < 100; i++ {
		if s2.Next() == a[i] {
			same++
		}
	}
	if same > 5 {
		t.Fatalf("seed 43 repeats %d/100 of seed 42's requests", same)
	}
}

// SpecObjects must be a pure function of the spec — remote mode depends
// on the load box reconstructing the serving box's corpus exactly.
func TestSpecObjectsDeterministic(t *testing.T) {
	a := SpecObjects(CorpusSpec{Objects: 24, Seed: 9})
	b := SpecObjects(CorpusSpec{Objects: 24, Seed: 9})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("object %d differs: %+v vs %+v", i, a[i], b[i])
		}
	}
	for _, o := range a {
		if o.Size < 64<<10 || o.Size > 2<<20 {
			t.Fatalf("object %s size %d outside default [64k, 2m]", o.Name, o.Size)
		}
	}
}

// Poisson sanity: exponential inter-arrivals at rate rps must average
// 1/rps, and must not be a metronome (nontrivial variance).
func TestPoissonArrivals(t *testing.T) {
	objs := SpecObjects(CorpusSpec{Objects: 4, Seed: 1})
	s, err := NewSchedule(objs, 200, 0, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20000
	gaps := make([]float64, n)
	prev := 0.0
	for i := range gaps {
		r := s.Next()
		gaps[i] = r.At - prev
		prev = r.At
	}
	var sum, sumSq float64
	for _, g := range gaps {
		sum += g
		sumSq += g * g
	}
	mean := sum / n
	if math.Abs(mean-1.0/200) > 0.1/200 {
		t.Fatalf("mean inter-arrival %.6fs, want ~%.6fs", mean, 1.0/200)
	}
	// For an exponential distribution the standard deviation equals the
	// mean; a fixed-interval generator would have ~0.
	sd := math.Sqrt(sumSq/n - mean*mean)
	if sd < 0.5*mean || sd > 1.5*mean {
		t.Fatalf("inter-arrival stddev %.6f vs mean %.6f: not exponential", sd, mean)
	}
}

// Zipf sanity: with s=1.0 over many draws, the hottest object must take
// a disproportionate share and the ordering of popularity must follow
// the (permuted) rank order.
func TestZipfPopularity(t *testing.T) {
	objs := SpecObjects(CorpusSpec{Objects: 10, Seed: 2})
	s, err := NewSchedule(objs, 100, 1.0, nil, 11)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[int]int)
	const n = 50000
	for i := 0; i < n; i++ {
		counts[s.Next().Obj]++
	}
	freq := make([]int, 0, len(counts))
	for _, c := range counts {
		freq = append(freq, c)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(freq)))
	// Harmonic number H_10 ≈ 2.93: rank-1 share ≈ 1/2.93 ≈ 34%.
	if share := float64(freq[0]) / n; share < 0.25 || share > 0.45 {
		t.Fatalf("hottest object share %.3f, want ~0.34", share)
	}
	if freq[0] < 5*freq[len(freq)-1] {
		t.Fatalf("popularity too flat for zipf s=1: hottest %d vs coldest %d", freq[0], freq[len(freq)-1])
	}
}

// Generated ranges must stay inside their object and respect the mix's
// class bounds (small objects legitimately fall back to full GETs).
func TestScheduleRangeBounds(t *testing.T) {
	objs := SpecObjects(CorpusSpec{Objects: 12, Seed: 5})
	mix := DefaultRangeMix()
	s, err := NewSchedule(objs, 100, 1.1, mix, 13)
	if err != nil {
		t.Fatal(err)
	}
	fulls := 0
	for i := 0; i < 10000; i++ {
		r := s.Next()
		size := objs[r.Obj].Size
		if r.Len < 0 {
			fulls++
			continue
		}
		if r.Off < 0 || r.Len <= 0 || r.Off+r.Len > size {
			t.Fatalf("range [%d,+%d] outside object size %d", r.Off, r.Len, size)
		}
	}
	if fulls == 0 {
		t.Fatal("mix includes a full-object class but no full GETs were generated")
	}
}

func TestParseRangeMix(t *testing.T) {
	mix, err := ParseRangeMix("50:4k-64k,35:64k-1m,10:1m-4m,5:full")
	if err != nil {
		t.Fatal(err)
	}
	if len(mix) != 4 {
		t.Fatalf("got %d classes, want 4", len(mix))
	}
	if mix[0].Min != 4<<10 || mix[0].Max != 64<<10 || mix[0].Weight != 50 {
		t.Fatalf("class 0 = %+v", mix[0])
	}
	if mix[3].Max != 0 {
		t.Fatalf("full class = %+v, want Max 0", mix[3])
	}
	for _, bad := range []string{"", "x", "0:1k-2k", "5:2k-1k", "5:1k", "5:a-b"} {
		if _, err := ParseRangeMix(bad); err == nil {
			t.Fatalf("ParseRangeMix(%q) accepted", bad)
		}
	}
}

// What a phase records is the harness's ground truth: its quantiles must
// stay within one fine sub-bucket (~3.1%) of an exact oracle, never below
// it, and the maximum and mean are exact — whatever perf.Histogram's
// resolution becomes, the report may not get coarser than this.
func TestRecorderQuantiles(t *testing.T) {
	var p phaseStats
	rng := newRNG(17)
	vals := make([]int64, 0, 5000)
	var sum int64
	for i := 0; i < 5000; i++ {
		v := int64(rng.next()%1_000_000) + 1
		if i%100 == 0 {
			v *= 1000 // outlier tail
		}
		vals = append(vals, v)
		sum += v
		p.record(outcomeOK, time.Duration(v), time.Duration(v), 0)
	}
	p.record(outcomeShed, time.Hour, time.Hour, 0) // only OK requests have a latency
	r := p.report("all", time.Second)
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []struct {
		q   float64
		got float64
	}{{0.5, r.P50Ms}, {0.95, r.P95Ms}, {0.99, r.P99Ms}, {0.999, r.P999Ms}, {0.5, r.ServiceP50Ms}, {0.99, r.ServiceP99Ms}} {
		exact := ms(time.Duration(vals[int(q.q*float64(len(vals)))-1]))
		if q.got < exact {
			t.Fatalf("q%.3f: estimate %v below exact %v (upper-bound property violated)", q.q, q.got, exact)
		}
		if q.got > exact*(1+1.0/32) {
			t.Fatalf("q%.3f: estimate %v too far above exact %v", q.q, q.got, exact)
		}
	}
	if r.OK != 5000 || r.Requests != 5001 {
		t.Fatalf("ok %d of %d requests", r.OK, r.Requests)
	}
	if want := ms(time.Duration(vals[len(vals)-1])); r.MaxMs != want {
		t.Fatalf("max %v, want %v", r.MaxMs, want)
	}
	if want := ms(time.Duration(sum / 5000)); r.MeanMs != want {
		t.Fatalf("mean %v, want %v", r.MeanMs, want)
	}
}

// Closed-loop mode must never have two requests in flight — that is
// the whole point of the calibration mode (both clocks bracket the
// same isolated work).
func TestClosedLoopSerial(t *testing.T) {
	const size = 64 << 10
	body := make([]byte, size)
	var inflight, maxSeen atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := inflight.Add(1)
		defer inflight.Add(-1)
		for {
			m := maxSeen.Load()
			if c <= m || maxSeen.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		w.Write(body)
	}))
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Objects:  []Object{{Name: "a", Size: size}},
		RPS:      500, // far beyond what serial 2ms handlers can absorb
		Duration: 500 * time.Millisecond,
		Ranges:   []RangeClass{{Weight: 1}}, // full GETs only
		Seed:     3,
		Closed:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := maxSeen.Load(); got != 1 {
		t.Fatalf("closed-loop run reached %d concurrent requests, want 1", got)
	}
	o := rep.Overall
	if o.Requests == 0 || o.OK != o.Requests {
		t.Fatalf("closed-loop run: %+v", o)
	}
}

// End-to-end: a short open-loop run against a real in-process server
// must complete with zero errors, report every request, and split them
// across the three phases.
func TestRunAgainstServer(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir, err := os.MkdirTemp(t.TempDir(), "corpus")
	if err != nil {
		t.Fatal(err)
	}
	spec := CorpusSpec{Objects: 4, MinSize: 32 << 10, MaxSize: 128 << 10, Seed: 21}
	objs, err := BuildCorpus(dir, spec)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Options{Root: dir, CacheBytes: 16 << 20, Logf: nil})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	rep, err := Run(context.Background(), Config{
		BaseURL:  ts.URL,
		Objects:  objs,
		RPS:      60,
		Duration: 3 * time.Second,
		ZipfS:    1.1,
		Deadline: 5 * time.Second,
		Seed:     21,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := rep.Overall
	if o.Requests < 100 {
		t.Fatalf("only %d requests in 3s at 60 rps", o.Requests)
	}
	if o.Errors != 0 || o.Timeout != 0 || o.Shed != 0 {
		t.Fatalf("fault-free run had failures: %+v", o)
	}
	if o.OK != o.Requests {
		t.Fatalf("ok %d != requests %d", o.OK, o.Requests)
	}
	if o.P50Ms <= 0 || o.P99Ms < o.P50Ms || o.MaxMs < o.P99Ms {
		t.Fatalf("non-monotone quantiles: %+v", o)
	}
	if o.ServiceP99Ms <= 0 || o.ServiceP99Ms > o.P99Ms*1.05 {
		t.Fatalf("service p99 %.2f vs open-loop p99 %.2f", o.ServiceP99Ms, o.P99Ms)
	}
	if len(rep.Phases) != 3 {
		t.Fatalf("got %d phases", len(rep.Phases))
	}
	var phaseSum int64
	for i, p := range rep.Phases {
		if p.Phase != PhaseNames[i] {
			t.Fatalf("phase %d named %q", i, p.Phase)
		}
		if p.Requests == 0 {
			t.Fatalf("phase %q empty", p.Phase)
		}
		phaseSum += p.Requests
	}
	if phaseSum != o.Requests {
		t.Fatalf("phases sum to %d, overall %d", phaseSum, o.Requests)
	}
	if o.Bytes == 0 {
		t.Fatal("no bytes recorded")
	}
}
