package fault

import (
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"time"
)

func parse(t *testing.T, spec string) *Script {
	t.Helper()
	s, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return s
}

func TestParseErrors(t *testing.T) {
	for _, spec := range []string{
		"noglob",              // no colon
		"*.gz:",               // empty kind
		"*.gz:explode",        // unknown kind
		"*.gz:latency",        // latency needs a duration
		"*.gz:latency=xyz",    // bad duration
		"*.gz:eio=5",          // eio takes no value
		"*.gz:eio@-3",         // negative offset
		"*.gz:truncate",       // truncate needs @offset
		"*.gz:shortread=0",    // zero clamp
		"*.gz:eio#0",          // zero count
		"[bad:eio",            // malformed glob
		"*.gz:truncate=9@100", // truncate takes no value
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) accepted", spec)
		}
	}
	// Empty specs and stray separators are fine.
	if s := parse(t, " ; ;"); len(s.rules) != 0 {
		t.Fatalf("blank spec produced %d rules", len(s.rules))
	}
}

func TestGlobMatching(t *testing.T) {
	s := parse(t, "*.gz:eio@0")
	for name, want := range map[string]bool{
		"a.gz":       true,
		"sub/b.gz":   true, // basename match for patterns without '/'
		"a.gpz":      false,
		"/lead.gz":   true, // leading slash stripped
		"sub/aa.gpz": false,
	} {
		if got := s.Active(name); got != want {
			t.Errorf("Active(%q) = %v, want %v", name, got, want)
		}
	}
	// A pattern with '/' matches the full path only.
	s2 := parse(t, "sub/*.gz:eio@0")
	if !s2.Active("sub/a.gz") || s2.Active("a.gz") || s2.Active("deep/sub/a.gz") {
		t.Fatal("path-qualified glob matched wrong names")
	}
}

func TestReaderAtEIO(t *testing.T) {
	data := []byte("0123456789abcdef")
	s := parse(t, "obj:eio@8")
	ra := s.ReaderAt("obj", bytes.NewReader(data))

	// Reads entirely before the bad region succeed.
	p := make([]byte, 4)
	if n, err := ra.ReadAt(p, 0); n != 4 || err != nil {
		t.Fatalf("pre-fault read: n=%d err=%v", n, err)
	}
	// A read spanning the boundary returns the good prefix and the error.
	p = make([]byte, 8)
	n, err := ra.ReadAt(p, 4)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("spanning read err = %v, want ErrInjected", err)
	}
	if n != 4 || !bytes.Equal(p[:n], data[4:8]) {
		t.Fatalf("spanning read returned %d bytes %q", n, p[:n])
	}
	// A read entirely inside the bad region returns nothing.
	if n, err := ra.ReadAt(p, 10); n != 0 || !errors.Is(err, ErrInjected) {
		t.Fatalf("bad-region read: n=%d err=%v", n, err)
	}
	// Unmatched names pass through untouched.
	other := s.ReaderAt("other", bytes.NewReader(data))
	if _, ok := other.(*faultReaderAt); ok {
		t.Fatal("unmatched name was wrapped")
	}
}

func TestFlakyThenRecover(t *testing.T) {
	data := []byte("0123456789")
	s := parse(t, "obj:eio#3")
	ra := s.ReaderAt("obj", bytes.NewReader(data))
	p := make([]byte, 10)
	for i := 0; i < 3; i++ {
		if _, err := ra.ReadAt(p, 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d: err = %v, want ErrInjected", i, err)
		}
	}
	n, err := ra.ReadAt(p, 0)
	if n != 10 || err != nil {
		t.Fatalf("post-recovery read: n=%d err=%v", n, err)
	}
	if !bytes.Equal(p, data) {
		t.Fatal("post-recovery bytes differ")
	}
}

func TestTruncateReaderAt(t *testing.T) {
	data := []byte("0123456789abcdef")
	s := parse(t, "obj:truncate@8")
	ra := s.ReaderAt("obj", bytes.NewReader(data))

	p := make([]byte, 16)
	n, err := ra.ReadAt(p, 0)
	if n != 8 || err != io.EOF {
		t.Fatalf("truncated read: n=%d err=%v, want 8, EOF", n, err)
	}
	if !bytes.Equal(p[:8], data[:8]) {
		t.Fatal("truncated read bytes differ")
	}
	if n, err := ra.ReadAt(p, 12); n != 0 || err != io.EOF {
		t.Fatalf("past-end read: n=%d err=%v", n, err)
	}
	// A read that fits entirely under the boundary sees no fault.
	if n, err := ra.ReadAt(p[:8], 0); n != 8 || err != nil {
		t.Fatalf("in-bounds read: n=%d err=%v", n, err)
	}
}

func TestShortRead(t *testing.T) {
	data := []byte("0123456789")
	s := parse(t, "obj:shortread=3")

	// Reader: short counts with no error, stream still completes.
	r := s.Reader("obj", bytes.NewReader(data))
	got, err := io.ReadAll(r)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("ReadAll over shortread: %q, %v", got, err)
	}

	// ReaderAt: contract demands an error alongside the short count.
	ra := s.ReaderAt("obj", bytes.NewReader(data))
	p := make([]byte, 10)
	n, err := ra.ReadAt(p, 0)
	if n != 3 || !errors.Is(err, ErrInjected) {
		t.Fatalf("short ReadAt: n=%d err=%v", n, err)
	}
	if !bytes.Equal(p[:3], data[:3]) {
		t.Fatal("short ReadAt bytes differ")
	}
}

func TestLatency(t *testing.T) {
	data := bytes.Repeat([]byte("x"), 64)
	s := parse(t, "obj:latency=20ms#2")
	ra := s.ReaderAt("obj", bytes.NewReader(data))
	p := make([]byte, 64)
	start := time.Now()
	if _, err := ra.ReadAt(p, 0); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("first read took %v, want >= 20ms", d)
	}
	// Count-limited latency burns out.
	ra.ReadAt(p, 0)
	start = time.Now()
	ra.ReadAt(p, 0)
	if d := time.Since(start); d > 15*time.Millisecond {
		t.Fatalf("post-recovery read took %v", d)
	}
}

func TestReaderEIOAndTruncate(t *testing.T) {
	data := []byte("0123456789abcdef")
	s := parse(t, "obj:eio@8")
	r := s.Reader("obj", bytes.NewReader(data))
	got, err := io.ReadAll(r)
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("sequential eio err = %v", err)
	}
	if !bytes.Equal(got, data[:8]) {
		t.Fatalf("sequential eio prefix = %q", got)
	}

	s2 := parse(t, "obj:truncate@5")
	r2 := s2.Reader("obj", bytes.NewReader(data))
	got, err = io.ReadAll(r2)
	if err != nil || !bytes.Equal(got, data[:5]) {
		t.Fatalf("sequential truncate: %q, %v", got, err)
	}
}

func TestSetEnabled(t *testing.T) {
	data := []byte("0123456789")
	s := parse(t, "obj:eio@0")
	ra := s.ReaderAt("obj", bytes.NewReader(data))
	p := make([]byte, 10)
	if _, err := ra.ReadAt(p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("enabled script err = %v", err)
	}
	s.SetEnabled(false)
	if n, err := ra.ReadAt(p, 0); n != 10 || err != nil {
		t.Fatalf("disabled script: n=%d err=%v", n, err)
	}
	s.SetEnabled(true)
	if _, err := ra.ReadAt(p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("re-enabled script err = %v", err)
	}
}

func TestMultipleRules(t *testing.T) {
	// Latency and EIO stack on one file; the second rule targets another.
	data := []byte(strings.Repeat("y", 32))
	s := parse(t, "a*:latency=15ms ; a*:eio@16 ; b*:truncate@4")
	ra := s.ReaderAt("aaa", bytes.NewReader(data))
	p := make([]byte, 32)
	start := time.Now()
	n, err := ra.ReadAt(p, 0)
	if !errors.Is(err, ErrInjected) || n != 16 {
		t.Fatalf("stacked rules: n=%d err=%v", n, err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("latency rule did not fire alongside eio")
	}
	rb := s.ReaderAt("bbb", bytes.NewReader(data))
	if n, err := rb.ReadAt(p, 0); n != 4 || err != io.EOF {
		t.Fatalf("other file: n=%d err=%v", n, err)
	}
}
