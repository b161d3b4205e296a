package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gompresso/internal/buildinfo"
	"gompresso/internal/fault"
	"gompresso/internal/server"
)

// serveCmd runs the HTTP object-serving daemon: every file under -root
// is exposed at its path with Range/If-Range/HEAD semantics over the
// decompressed stream, hot blocks shared through the decoded-block
// cache, and /healthz, /readyz + /metrics for operations. See
// internal/server.
func serveCmd(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	root := fs.String("root", ".", "directory of objects to serve")
	cacheMB := fs.Int64("cache", 64, "decoded-block cache budget in MiB (0 disables)")
	workers := fs.Int("workers", 0, "decode worker budget shared by all requests (0 = GOMAXPROCS)")
	maxInFlight := fs.Int("max-inflight", 0, "max requests decoding concurrently (0 = 4x GOMAXPROCS)")
	queueWait := fs.Duration("queue-wait", 5*time.Second, "max time a request queues on the limiter before a 503 shed (negative = wait forever)")
	reqTimeout := fs.Duration("request-timeout", 0, "per-request decode deadline (0 disables)")
	writeTimeout := fs.Duration("write-timeout", 30*time.Second, "rolling per-write deadline on response bodies (0 disables)")
	quarTTL := fs.Duration("quarantine-ttl", 30*time.Second, "how long a corrupt object fails fast with 502 before re-probing (negative disables)")
	indexDir := fs.String("index-dir", "", "persist .gz/.zz seek-index sidecars here after the first decode ('' = in-memory only; use -root to keep them beside the objects)")
	indexSpacing := fs.Int64("index-spacing", 0, "decompressed bytes between seek-index checkpoints (0 = ~1 MiB default)")
	readTimeout := fs.Duration("read-timeout", 30*time.Second, "http.Server full-request read timeout")
	idleTimeout := fs.Duration("idle-timeout", 120*time.Second, "http.Server keep-alive idle timeout")
	drain := fs.Duration("drain", 10*time.Second, "shutdown grace period for in-flight responses")
	drainWait := fs.Duration("drain-wait", 0, "pause between flipping /readyz unready and starting shutdown (lets load balancers catch up)")
	faultSpec := fs.String("fault", "", "DEV ONLY: fault-injection script, e.g. '*.gz:eio@4096;big*:latency=50ms' (see internal/fault)")
	quiet := fs.Bool("quiet", false, "suppress server event log lines (quarantine, sidecar, panic); requests go to -access-log")
	accessLog := fs.String("access-log", "stderr", "structured JSON access log destination: stderr, off, or a file path (appended)")
	noTrace := fs.Bool("no-trace", false, "disable request tracing, the access log, and /debug/requests")
	pprofAddr := fs.String("pprof-addr", "", "serve net/http/pprof on this address (separate listener; '' disables)")
	fs.Parse(args)
	if fs.NArg() != 0 {
		return fmt.Errorf("serve takes flags only")
	}
	logger := log.New(os.Stderr, "gompresso-serve ", log.LstdFlags)
	logf := logger.Printf
	if *quiet {
		logf = nil
	}
	var accessW io.Writer
	switch *accessLog {
	case "off", "":
	case "stderr":
		accessW = os.Stderr
	default:
		f, err := os.OpenFile(*accessLog, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("access-log: %w", err)
		}
		defer f.Close()
		accessW = f
	}
	opts := server.Options{
		Root:           *root,
		CacheBytes:     *cacheMB << 20,
		Workers:        *workers,
		MaxInFlight:    *maxInFlight,
		QueueWait:      *queueWait,
		RequestTimeout: *reqTimeout,
		WriteTimeout:   *writeTimeout,
		QuarantineTTL:  *quarTTL,
		IndexDir:       *indexDir,
		IndexSpacing:   *indexSpacing,
		Logf:           logf,
		AccessLog:      accessW,
		NoTrace:        *noTrace,
	}
	if *faultSpec != "" {
		script, err := fault.Parse(*faultSpec)
		if err != nil {
			return err
		}
		logger.Printf("FAULT INJECTION ACTIVE: %s", script)
		opts.Source = server.NewFaultSource(server.NewDirSource(*root), script)
	}
	s, err := server.New(opts)
	if err != nil {
		return err
	}
	// Listen explicitly (rather than ListenAndServe) so "listening on"
	// is printed only once the port is actually bound — the smoke test's
	// readiness signal.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	// Profiling stays off the serving listener: a different port means a
	// firewall can expose one without the other, and a runaway profile
	// download cannot occupy a serving connection slot.
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			return fmt.Errorf("pprof-addr: %w", err)
		}
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		logger.Printf("pprof listening on http://%s/debug/pprof/", pln.Addr())
		go func() { _ = http.Serve(pln, pmux) }()
	}
	hs := &http.Server{
		Handler:           s.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		IdleTimeout:       *idleTimeout,
	}
	logger.Printf("%s", buildinfo.Get().String())
	logger.Printf("listening on http://%s root=%s cache=%dMiB", ln.Addr(), *root, *cacheMB)

	// Graceful shutdown: flip /readyz so load balancers stop routing,
	// wait out -drain-wait for them to notice, stop accepting, give
	// in-flight responses the -drain grace period, then cut them off.
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-sigc:
		logger.Printf("%v: draining", sig)
		s.BeginDrain()
		if *drainWait > 0 {
			time.Sleep(*drainWait)
		}
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
			return err
		}
		return nil
	}
}
