package server

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gompresso"
	"gompresso/internal/datagen"
	"gompresso/internal/fault"
	"gompresso/internal/format"
)

// noLeaks asserts the goroutine count returns to its baseline after fn:
// every decode pipeline, limiter waiter, and fetch goroutine a failed or
// abandoned request started must wind down.
func noLeaks(t *testing.T, fn func()) {
	t.Helper()
	// Idle keep-alive connections each pin a server goroutine; drop them
	// so the baseline and the final count measure decode machinery, not
	// the connection pool.
	http.DefaultClient.CloseIdleConnections()
	time.Sleep(20 * time.Millisecond)
	base := runtime.NumGoroutine()
	fn()
	deadline := time.Now().Add(10 * time.Second)
	for {
		http.DefaultClient.CloseIdleConnections()
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d running, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func mustScript(t *testing.T, spec string) *fault.Script {
	t.Helper()
	sc, err := fault.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func metricsJSON(t *testing.T, ts string) map[string]float64 {
	t.Helper()
	resp := get(t, ts+"/metrics?format=json", nil)
	var m map[string]float64
	if err := json.Unmarshal(body(t, resp), &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// The fault matrix: every fault kind × every serving path (indexed
// container, unindexed container, foreign gzip) × cold and warm cache.
// Faulted requests must come back with a clean error status or an
// aborted body — never a hang, never a process death — and after the
// script is disabled and the quarantine cleared, the same object must
// serve byte-identical content: no fault residue in the block cache or
// the registry.
func TestFaultMatrix(t *testing.T) {
	objects := []string{"corpus.txt.gpz", "noindex.gpz", "corpus.txt.gz"}
	scripts := []string{
		"%s:eio@0",          // unreadable from byte zero
		"%s:eio@2000",       // readable prefix, then EIO
		"%s:eio#2",          // flaky: two failures, then healthy
		"%s:latency=30ms#4", // slow reads, then healthy
		"%s:shortread=512",  // dribbling reads
		"%s:truncate@1500",  // file cut short
	}
	for _, warm := range []bool{false, true} {
		for _, spec := range scripts {
			for _, name := range objects {
				name, spec := name, spec
				t.Run(fmt.Sprintf("%s/%s/warm=%v", spec[3:], name, warm), func(t *testing.T) {
					fx := newFixture(t)
					script := mustScript(t, fmt.Sprintf(spec, name))
					src := NewFaultSource(NewDirSource(fx.root), script)
					_, ts := startServer(t, Options{
						Root:          fx.root,
						CacheBytes:    8 << 20,
						Source:        src,
						QuarantineTTL: 50 * time.Millisecond,
						QueueWait:     10 * time.Second,
					})
					noLeaks(t, func() {
						if warm {
							// Warm the cache through the healthy control
							// object so poisoning would be observable.
							script.SetEnabled(false)
							resp := get(t, ts.URL+"/"+name, nil)
							if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
								t.Fatalf("warmup: status %d, %d bytes", resp.StatusCode, len(b))
							}
							script.SetEnabled(true)
						}
						healthy := "sub/nested.gpz"
						for i := 0; i < 3; i++ {
							// Faulted object: whatever happens must finish —
							// either a complete correct body or a clean
							// failure (error status, or an aborted body).
							resp := get(t, ts.URL+"/"+name, nil)
							b, rerr := io.ReadAll(resp.Body)
							resp.Body.Close()
							complete := rerr == nil && resp.StatusCode == http.StatusOK && bytes.Equal(b, fx.src)
							failed := resp.StatusCode >= 400 || rerr != nil ||
								(resp.StatusCode == http.StatusOK && !bytes.Equal(b, fx.src))
							if !complete && !failed {
								t.Fatalf("request %d: status %d, %d bytes, readErr=%v", i, resp.StatusCode, len(b), rerr)
							}
							// The healthy object keeps serving bit-exact
							// alongside every failure mode.
							hresp := get(t, ts.URL+"/"+healthy, nil)
							if hb := body(t, hresp); hresp.StatusCode != http.StatusOK || !bytes.Equal(hb, fx.src) {
								t.Fatalf("healthy object degraded: status %d, %d bytes", hresp.StatusCode, len(hb))
							}
						}
						// Recovery: faults off, quarantine TTL elapsed — the
						// object must serve byte-identical. A poisoned cache
						// or sticky negative entry fails here.
						script.SetEnabled(false)
						time.Sleep(80 * time.Millisecond)
						resp := get(t, ts.URL+"/"+name, nil)
						if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
							t.Fatalf("post-fault recovery: status %d, %d bytes", resp.StatusCode, len(b))
						}
					})
				})
			}
		}
	}
}

// A genuinely corrupt object is quarantined after its first failed
// decode: repeats answer 502 without re-decoding (the discovery-pass
// counter stands still), the TTL expires the entry, and rewriting the
// file clears it immediately.
func TestQuarantine(t *testing.T) {
	fx := newFixture(t)
	// Corrupt the .gz mid-stream: resolves and sniffs fine, dies in decode.
	p := filepath.Join(fx.root, "corpus.txt.gz")
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s, ts := startServer(t, Options{Root: fx.root, QuarantineTTL: 300 * time.Millisecond})
	url := ts.URL + "/corpus.txt.gz"
	// A revalidation builds the registry entry from the validators alone.
	resp := get(t, url, map[string]string{"If-None-Match": "*"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("revalidation: status %d, want 304", resp.StatusCode)
	}
	s.mu.Lock()
	live := s.objects["corpus.txt.gz"]
	s.mu.Unlock()

	resp = get(t, url, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("first request: status %d, want 502", resp.StatusCode)
	}
	first := metricsJSON(t, ts.URL)
	if first["quarantined_total"] != 1 || first["quarantined_objects"] != 1 {
		t.Fatalf("quarantined_total = %v, quarantined_objects = %v", first["quarantined_total"], first["quarantined_objects"])
	}
	// The verdict replaced the entry with a descriptor-less tombstone and
	// retired its predecessor, closing the file nobody reads any more.
	s.mu.Lock()
	tomb, stale, refs := s.objects["corpus.txt.gz"], live.stale, live.refs
	s.mu.Unlock()
	if tomb == live || tomb.until.IsZero() || tomb.file != nil || !stale || refs != 0 {
		t.Fatalf("after the verdict: tombstone %+v, predecessor stale=%v refs=%d", tomb, stale, refs)
	}
	if _, err := live.file.ReadAt(make([]byte, 1), 0); err == nil {
		t.Fatal("the quarantined predecessor's file is still open")
	}
	// Repeats fail fast: same 502, zero additional decodes.
	for i := 0; i < 5; i++ {
		resp := get(t, url, nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("quarantined repeat %d: status %d", i, resp.StatusCode)
		}
	}
	after := metricsJSON(t, ts.URL)
	if after["sequential_decodes_total"] != first["sequential_decodes_total"] {
		t.Fatalf("quarantined repeats re-decoded: %v -> %v",
			first["sequential_decodes_total"], after["sequential_decodes_total"])
	}
	if after["quarantine_hits_total"] < 5 {
		t.Fatalf("quarantine_hits_total = %v", after["quarantine_hits_total"])
	}

	// TTL expiry re-probes (and re-quarantines — the file is still bad).
	time.Sleep(350 * time.Millisecond)
	resp = get(t, url, nil)
	resp.Body.Close()
	expired := metricsJSON(t, ts.URL)
	if expired["sequential_decodes_total"] == after["sequential_decodes_total"] {
		t.Fatal("TTL expiry did not re-probe the object")
	}

	// Rewriting the file clears the entry without waiting out the TTL.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(fx.src)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	future := time.Now().Add(2 * time.Second)
	os.Chtimes(p, future, future)
	resp = get(t, url, nil)
	if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
		t.Fatalf("rewritten object: status %d, %d bytes", resp.StatusCode, len(b))
	}
	if n := metricsJSON(t, ts.URL)["quarantined_objects"]; n != 0 {
		t.Fatalf("%v quarantine entries survive the rewrite", n)
	}
}

// Queued past QueueWait, a request is shed with 503 + Retry-After
// rather than waiting forever.
func TestLoadShedding(t *testing.T) {
	fx := newFixture(t)
	script := mustScript(t, "corpus.txt.gz:latency=200ms#100")
	src := NewFaultSource(NewDirSource(fx.root), script)
	_, ts := startServer(t, Options{
		Root:        fx.root,
		Source:      src,
		MaxInFlight: 1,
		QueueWait:   50 * time.Millisecond,
	})
	// Occupy the only slot with a slow discovery pass.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := get(t, ts.URL+"/corpus.txt.gz", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	// Wait until the slow request actually holds the limiter slot — it
	// spends time in faulted reads before reaching the decode section.
	for deadline := time.Now().Add(5 * time.Second); ; {
		if m := metricsJSON(t, ts.URL); m["inflight_requests"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never entered the decode section")
		}
		time.Sleep(5 * time.Millisecond)
	}
	shed := false
	for i := 0; i < 5 && !shed; i++ {
		resp := get(t, ts.URL+"/sub/nested.gpz", nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("shed response missing Retry-After")
			}
			shed = true
		}
		resp.Body.Close()
	}
	wg.Wait()
	if !shed {
		t.Fatal("no request was shed with 503")
	}
	if m := metricsJSON(t, ts.URL); m["shed_total"] < 1 {
		t.Fatalf("shed_total = %v", m["shed_total"])
	}
	// With the slot free again, requests are admitted normally.
	resp := get(t, ts.URL+"/sub/nested.gpz", nil)
	if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
		t.Fatalf("post-shed request: status %d", resp.StatusCode)
	}
}

// Two sheds must never return identical Retry-After advice: a constant
// tells every shed client to retry on the same second boundary, and
// under open-loop load the whole shed cohort re-stampedes the queue
// together. The advice staggers across the estimated drain window.
func TestShedRetryAfterStaggered(t *testing.T) {
	fx := newFixture(t)
	script := mustScript(t, "corpus.txt.gz:latency=200ms#200")
	src := NewFaultSource(NewDirSource(fx.root), script)
	srv, ts := startServer(t, Options{
		Root:        fx.root,
		Source:      src,
		MaxInFlight: 1,
		QueueWait:   30 * time.Millisecond,
	})
	// The advice function itself: always in [1, 30] seconds, and no two
	// consecutive calls agree.
	prev := ""
	for i := 0; i < 8; i++ {
		adv := srv.retryAfterAdvice()
		sec, err := strconv.Atoi(adv)
		if err != nil || sec < 1 || sec > 30 {
			t.Fatalf("advice %q not an integer in [1,30]", adv)
		}
		if adv == prev {
			t.Fatalf("consecutive sheds advised the same Retry-After %q", adv)
		}
		prev = adv
	}
	// End to end: hold the single slot, collect two real shed responses,
	// and compare their headers.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp := get(t, ts.URL+"/corpus.txt.gz", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	for deadline := time.Now().Add(5 * time.Second); ; {
		if m := metricsJSON(t, ts.URL); m["inflight_requests"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("slow request never entered the decode section")
		}
		time.Sleep(5 * time.Millisecond)
	}
	var advice []string
	for i := 0; i < 20 && len(advice) < 2; i++ {
		resp := get(t, ts.URL+"/sub/nested.gpz", nil)
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusServiceUnavailable {
			advice = append(advice, resp.Header.Get("Retry-After"))
		}
		resp.Body.Close()
	}
	wg.Wait()
	if len(advice) < 2 {
		t.Fatalf("collected %d shed responses, want 2", len(advice))
	}
	if advice[0] == advice[1] {
		t.Fatalf("two sheds returned identical Retry-After %q", advice[0])
	}
}

// panicSource panics when a specific object is opened — standing in for
// a handler bug. The middleware must answer 500 and keep the process
// (and subsequent requests) alive.
type panicSource struct {
	Source
	name string
}

func (p *panicSource) Open(name string) (File, error) {
	if name == p.name {
		panic("panicSource: injected handler panic")
	}
	return p.Source.Open(name)
}

func TestPanicRecovery(t *testing.T) {
	fx := newFixture(t)
	src := &panicSource{Source: NewDirSource(fx.root), name: "noindex.gpz"}
	_, ts := startServer(t, Options{Root: fx.root, Source: src})
	for i := 0; i < 2; i++ {
		resp := get(t, ts.URL+"/noindex.gpz", nil)
		resp.Body.Close()
		if resp.StatusCode != http.StatusInternalServerError {
			t.Fatalf("panicking request %d: status %d, want 500", i, resp.StatusCode)
		}
	}
	// The process survives and other objects still serve.
	resp := get(t, ts.URL+"/corpus.txt.gpz", nil)
	if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
		t.Fatalf("post-panic request: status %d", resp.StatusCode)
	}
	if m := metricsJSON(t, ts.URL); m["panics_total"] != 2 {
		t.Fatalf("panics_total = %v", m["panics_total"])
	}
}

// The per-request decode deadline fires during slow size discovery,
// before headers: the client sees 503, the limiter slot frees, and no
// pipeline goroutine survives.
func TestRequestTimeout(t *testing.T) {
	fx := newFixture(t)
	script := mustScript(t, "corpus.txt.gz:latency=150ms#1000")
	src := NewFaultSource(NewDirSource(fx.root), script)
	_, ts := startServer(t, Options{
		Root:           fx.root,
		Source:         src,
		MaxInFlight:    1,
		RequestTimeout: 100 * time.Millisecond,
	})
	noLeaks(t, func() {
		resp := get(t, ts.URL+"/corpus.txt.gz", nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("timed-out request: status %d, want 503", resp.StatusCode)
		}
		// The slot freed: a healthy request completes within its own
		// deadline (nested.gpz decodes indexed, far under 100ms).
		script.SetEnabled(false)
		resp = get(t, ts.URL+"/sub/nested.gpz", nil)
		if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
			t.Fatalf("post-timeout request: status %d", resp.StatusCode)
		}
	})
}

// A request whose deadline expires mid-WriteRangeTo aborts the body,
// releases its pinned cache buffers, and leaks nothing.
func TestRequestTimeoutMidResponse(t *testing.T) {
	fx := newFixture(t)
	script := mustScript(t, "corpus.txt.gpz:latency=40ms#1000")
	src := NewFaultSource(NewDirSource(fx.root), script)
	s, ts := startServer(t, Options{
		Root:           fx.root,
		Source:         src,
		CacheBytes:     8 << 20,
		RequestTimeout: 120 * time.Millisecond,
	})
	noLeaks(t, func() {
		resp := get(t, ts.URL+"/corpus.txt.gpz", nil)
		b, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		// Headers may have gone out as 200 before the deadline hit; the
		// body must then be truncated or errored — never a silent stall.
		if resp.StatusCode == http.StatusOK && rerr == nil && bytes.Equal(b, fx.src) {
			// Decode beat the deadline — acceptable on a fast machine,
			// but the latency script should normally prevent it.
			t.Log("decode completed inside the deadline")
		}
		script.SetEnabled(false)
		resp = get(t, ts.URL+"/corpus.txt.gpz", nil)
		if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
			t.Fatalf("recovery request: status %d, %d bytes", resp.StatusCode, len(b))
		}
	})
	// Every cache buffer pinned by the aborted request was released:
	// resident bytes within budget and no refcount wedge — a second
	// full read must still be able to evict/insert freely.
	if st := s.Codec().CacheStats(); st.Bytes > st.MaxBytes {
		t.Fatalf("cache over budget after aborted request: %+v", st)
	}
}

// Mid-body client disconnects across every serving path, asserting no
// goroutine leaks (extends TestClientDisconnect with leak checking and
// the objects whose first request runs a discovery pass).
func TestDisconnectLeaks(t *testing.T) {
	fx := newFixture(t)
	_, ts := startServer(t, Options{Root: fx.root, CacheBytes: 4 << 20, MaxInFlight: 2})
	noLeaks(t, func() {
		for _, name := range []string{"corpus.txt.gpz", "noindex.gpz", "corpus.txt.gz"} {
			for i := 0; i < 3; i++ {
				req, _ := http.NewRequest(http.MethodGet, ts.URL+"/"+name, nil)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.ReadFull(resp.Body, make([]byte, 100))
				resp.Body.Close() // abandon mid-stream
			}
		}
		// All slots must be free for a clean full read.
		resp := get(t, ts.URL+"/corpus.txt.gpz", nil)
		if b := body(t, resp); !bytes.Equal(b, fx.src) {
			t.Fatal("post-disconnect body mismatch")
		}
	})
}

// Flaky source reads during the one-time discovery pass are retried with
// backoff inside the request: the client sees one clean 200.
func TestSequentialRetry(t *testing.T) {
	fx := newFixture(t)
	// The offset keeps the format-sniff read below the fault, so the
	// failures land inside the counting decode where the retry lives.
	script := mustScript(t, "corpus.txt.gz:eio@4096#2")
	src := NewFaultSource(NewDirSource(fx.root), script)
	_, ts := startServer(t, Options{Root: fx.root, Source: src})
	resp := get(t, ts.URL+"/corpus.txt.gz", nil)
	if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
		t.Fatalf("flaky object: status %d, %d bytes", resp.StatusCode, len(b))
	}
	if m := metricsJSON(t, ts.URL); m["source_retries_total"] < 1 {
		t.Fatalf("source_retries_total = %v", m["source_retries_total"])
	}
}

// /readyz flips to 503 at drain start while /healthz stays 200 and
// in-flight objects keep serving.
func TestReadyz(t *testing.T) {
	fx := newFixture(t)
	s, ts := startServer(t, Options{Root: fx.root})
	resp := get(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body(t, resp)), "ready") {
		t.Fatal("readyz not ready at start")
	}
	s.BeginDrain()
	resp = get(t, ts.URL+"/readyz", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d, want 503", resp.StatusCode)
	}
	body(t, resp)
	resp = get(t, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz during drain: status %d", resp.StatusCode)
	}
	body(t, resp)
	// Routed-anyway requests still serve during the drain window.
	resp = get(t, ts.URL+"/corpus.txt.gpz", nil)
	if b := body(t, resp); resp.StatusCode != http.StatusOK || !bytes.Equal(b, fx.src) {
		t.Fatal("object request failed during drain")
	}
	if s.Ready() {
		t.Fatal("Ready() true after BeginDrain")
	}
}

// A native scan that hits a failing read must not report the object as
// malformed: an EIO anywhere in the container surfaces unclassified (and so
// transient — retried, never quarantined), while a container that really
// ends early is still ErrFormat.
func TestBlockReaderReadErrorIsNotCorruption(t *testing.T) {
	c, err := gompresso.New(gompresso.WithBlockSize(1<<10), gompresso.WithIndex(true))
	if err != nil {
		t.Fatal(err)
	}
	data, _, err := c.Compress(datagen.WikiXML(5<<10, 1))
	if err != nil {
		t.Fatal(err)
	}
	// scan walks the container under a fault spec and returns where the last
	// block it read ended, with the error that stopped it.
	scan := func(spec string) (end int64, err error) {
		r := mustScript(t, spec).Reader("obj.gpz", bytes.NewReader(data))
		br, err := format.NewBlockReader(r)
		for blk := new(format.Block); err == nil; {
			end = br.Offset()
			err = br.Next(blk)
		}
		return end, err
	}
	blocksEnd, err := scan("")
	if err != io.EOF {
		t.Fatalf("fault-free scan: %v", err)
	}
	for off := 0; off < len(data); off++ {
		_, err := scan(fmt.Sprintf("*.gpz:eio@%d", off))
		if !errors.Is(err, fault.ErrInjected) || errors.Is(err, format.ErrFormat) || !isTransient(err) {
			t.Fatalf("eio@%d: %v (ErrFormat %v, transient %v)", off, err, errors.Is(err, format.ErrFormat), isTransient(err))
		}
		if int64(off) == blocksEnd {
			continue // a container cut where its index trailer starts is whole, just unindexed
		}
		_, err = scan(fmt.Sprintf("*.gpz:truncate@%d", off))
		if !errors.Is(err, format.ErrFormat) || isTransient(err) {
			t.Fatalf("truncate@%d: %v, want ErrFormat", off, err)
		}
	}
}
