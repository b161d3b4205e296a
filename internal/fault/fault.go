// Package fault injects programmable I/O failures into the read path —
// the test harness behind the serving stack's failure-domain hardening.
// A Script is a list of rules parsed from a compact spec string; each
// rule selects files by path glob and applies one fault kind, optionally
// limited to a trigger count so a fault can be flaky (fail N times, then
// recover). Wrappers exist for the two read shapes the repository uses:
// io.ReaderAt (the server's object files) and io.Reader (sequential
// streams).
//
// Spec grammar — rules separated by ';':
//
//	rule   := glob ':' kind [ '=' value ] [ '@' offset ] [ '#' count ]
//	kind   := eio | latency | shortread | truncate
//
// Examples:
//
//	*.gz:eio@4096        reads touching byte 4096 or beyond fail with ErrInjected
//	corpus*:latency=50ms every read sleeps 50ms first
//	*:shortread=7        reads return at most 7 bytes (ReaderAt: with an error,
//	                     preserving the io.ReaderAt contract)
//	big*:truncate@1000   the file appears to end at byte 1000
//	*.gpz:eio#3          the first 3 reads fail, then the file recovers
//
// A glob matches against the full slash-separated name and, when the
// pattern has no '/', against the base name too — "*.gz" matches
// "sub/a.gz". Faults injected by a Script fail with errors wrapping
// ErrInjected, so harnesses can tell injected failures from real ones.
// SetEnabled(false) turns the whole script into a no-op at runtime,
// letting one server see faults appear and clear without restarting.
package fault

import (
	"errors"
	"fmt"
	"io"
	"path"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every error a Script injects. Injected
// faults model transient I/O failures (EIO, short reads), not data
// corruption: the bytes that are returned are always genuine.
var ErrInjected = errors.New("fault: injected I/O error")

// Kind is a fault flavor.
type Kind int

const (
	// KindEIO fails reads that touch byte Off or beyond. Bytes before
	// Off are served (a read spanning the boundary returns the prefix
	// plus the error), modeling a bad disk region.
	KindEIO Kind = iota
	// KindLatency sleeps Delay before every read — a slow device or a
	// saturated filesystem.
	KindLatency
	// KindShortRead clamps each read to N bytes. io.Reader wrappers
	// return the short count without error (legal for Read); ReaderAt
	// wrappers return it with an error wrapping ErrInjected, as the
	// io.ReaderAt contract requires for partial reads.
	KindShortRead
	// KindTruncate makes the file appear to end at byte Off: reads
	// beyond it return io.EOF exactly as a really-truncated file would,
	// so decoders see genuine-looking truncation.
	KindTruncate
)

func (k Kind) String() string {
	switch k {
	case KindEIO:
		return "eio"
	case KindLatency:
		return "latency"
	case KindShortRead:
		return "shortread"
	case KindTruncate:
		return "truncate"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// rule is one parsed spec clause. remaining is the fire budget: negative
// means unlimited, zero means burnt out (the fault has "recovered").
type rule struct {
	pattern   string
	kind      Kind
	off       int64
	delay     time.Duration
	n         int64
	remaining atomic.Int64
}

// fire consumes one trigger. It reports whether the rule still applies.
func (r *rule) fire() bool {
	for {
		c := r.remaining.Load()
		if c < 0 {
			return true
		}
		if c == 0 {
			return false
		}
		if r.remaining.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

func (r *rule) matches(name string) bool {
	name = strings.TrimPrefix(name, "/")
	if ok, _ := path.Match(r.pattern, name); ok {
		return true
	}
	if !strings.Contains(r.pattern, "/") {
		if ok, _ := path.Match(r.pattern, path.Base(name)); ok {
			return true
		}
	}
	return false
}

// Script is a parsed fault specification. It is safe for concurrent use;
// trigger counts are shared across every file a rule matches.
type Script struct {
	rules    []*rule
	spec     string
	disabled atomic.Bool
}

// Parse compiles a spec string (see the package comment for the
// grammar). An empty spec yields a script that injects nothing.
func Parse(spec string) (*Script, error) {
	s := &Script{spec: spec}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		r, err := parseRule(clause)
		if err != nil {
			return nil, err
		}
		s.rules = append(s.rules, r)
	}
	return s, nil
}

func parseRule(clause string) (*rule, error) {
	colon := strings.LastIndex(clause, ":")
	if colon <= 0 || colon == len(clause)-1 {
		return nil, fmt.Errorf("fault: rule %q: want glob:kind[...]", clause)
	}
	glob, body := clause[:colon], clause[colon+1:]
	if _, err := path.Match(glob, "probe"); err != nil {
		return nil, fmt.Errorf("fault: rule %q: bad glob: %w", clause, err)
	}
	r := &rule{pattern: glob}
	r.remaining.Store(-1)

	// Peel the optional suffixes right to left: #count, then @offset.
	if i := strings.IndexByte(body, '#'); i >= 0 {
		c, err := strconv.ParseInt(body[i+1:], 10, 64)
		if err != nil || c <= 0 {
			return nil, fmt.Errorf("fault: rule %q: bad count %q", clause, body[i+1:])
		}
		r.remaining.Store(c)
		body = body[:i]
	}
	hasOff := false
	if i := strings.IndexByte(body, '@'); i >= 0 {
		o, err := strconv.ParseInt(body[i+1:], 10, 64)
		if err != nil || o < 0 {
			return nil, fmt.Errorf("fault: rule %q: bad offset %q", clause, body[i+1:])
		}
		r.off, hasOff = o, true
		body = body[:i]
	}
	kind, value, hasValue := body, "", false
	if i := strings.IndexByte(body, '='); i >= 0 {
		kind, value, hasValue = body[:i], body[i+1:], true
	}
	switch kind {
	case "eio":
		r.kind = KindEIO
		if hasValue {
			return nil, fmt.Errorf("fault: rule %q: eio takes no value", clause)
		}
	case "latency":
		r.kind = KindLatency
		if !hasValue {
			return nil, fmt.Errorf("fault: rule %q: latency needs =duration", clause)
		}
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return nil, fmt.Errorf("fault: rule %q: bad duration %q", clause, value)
		}
		r.delay = d
	case "shortread":
		r.kind = KindShortRead
		r.n = 1
		if hasValue {
			n, err := strconv.ParseInt(value, 10, 64)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("fault: rule %q: bad shortread size %q", clause, value)
			}
			r.n = n
		}
	case "truncate":
		r.kind = KindTruncate
		if !hasOff {
			return nil, fmt.Errorf("fault: rule %q: truncate needs @offset", clause)
		}
		if hasValue {
			return nil, fmt.Errorf("fault: rule %q: truncate takes no value", clause)
		}
	default:
		return nil, fmt.Errorf("fault: rule %q: unknown kind %q", clause, kind)
	}
	return r, nil
}

// String returns the spec the script was parsed from.
func (s *Script) String() string { return s.spec }

// SetEnabled turns injection on or off at runtime. A disabled script's
// wrappers pass reads through untouched (state such as remaining trigger
// counts is preserved).
func (s *Script) SetEnabled(on bool) { s.disabled.Store(!on) }

// Enabled reports whether the script is injecting.
func (s *Script) Enabled() bool { return !s.disabled.Load() }

// match returns the rules selecting name, in spec order.
func (s *Script) match(name string) []*rule {
	var rs []*rule
	for _, r := range s.rules {
		if r.matches(name) {
			rs = append(rs, r)
		}
	}
	return rs
}

// Active reports whether any rule selects name (regardless of remaining
// trigger counts).
func (s *Script) Active(name string) bool { return len(s.match(name)) > 0 }

// ReaderAt wraps ra with the rules selecting name. When none do, ra is
// returned unchanged.
func (s *Script) ReaderAt(name string, ra io.ReaderAt) io.ReaderAt {
	rs := s.match(name)
	if len(rs) == 0 {
		return ra
	}
	return &faultReaderAt{script: s, rules: rs, ra: ra}
}

// Reader wraps r with the rules selecting name. When none do, r is
// returned unchanged.
func (s *Script) Reader(name string, r io.Reader) io.Reader {
	rs := s.match(name)
	if len(rs) == 0 {
		return r
	}
	return &faultReader{script: s, rules: rs, r: r}
}

// apply runs the non-EIO shaping rules for a read of want bytes at off:
// latency sleeps, truncate clamps, shortread clamps. It returns the
// allowed read size, whether EOF applies at the clamp (truncation), and
// whether a short-read fault fired (ReaderAt wrappers convert that into
// an error to honor their contract).
func (s *Script) apply(rules []*rule, off int64, want int) (n int, truncated, short bool, err error) {
	n = want
	for _, r := range rules {
		switch r.kind {
		case KindLatency:
			if r.fire() {
				time.Sleep(r.delay)
			}
		case KindTruncate:
			if off >= r.off {
				return 0, true, false, nil
			}
			if max := int(r.off - off); n > max {
				n, truncated = max, true
			}
		case KindShortRead:
			if int64(n) > r.n && r.fire() {
				n, short = int(r.n), true
			}
		case KindEIO:
			if off+int64(n) > r.off && r.fire() {
				if max := int(r.off - off); max < n {
					if max < 0 {
						max = 0
					}
					n = max
				}
				return n, false, false, fmt.Errorf("%w: read at %d (eio@%d)", ErrInjected, off, r.off)
			}
		}
	}
	return n, truncated, short, nil
}

// faultReaderAt injects into positioned reads.
type faultReaderAt struct {
	script *Script
	rules  []*rule
	ra     io.ReaderAt
}

func (f *faultReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if !f.script.Enabled() {
		return f.ra.ReadAt(p, off)
	}
	n, truncated, short, ferr := f.script.apply(f.rules, off, len(p))
	if ferr != nil {
		m := 0
		if n > 0 {
			m, _ = f.ra.ReadAt(p[:n], off)
		}
		return m, ferr
	}
	if n == 0 && truncated {
		return 0, io.EOF
	}
	m, err := f.ra.ReadAt(p[:n], off)
	if err == nil {
		switch {
		case truncated && m == n:
			// The virtual file ends here; a full read up to the clamp is
			// EOF only when the caller wanted more.
			if n < len(p) {
				err = io.EOF
			}
		case short:
			// io.ReaderAt requires an error when m < len(p).
			err = fmt.Errorf("%w: short read at %d (%d of %d bytes)", ErrInjected, off, m, len(p))
		}
	}
	return m, err
}

// faultReader injects into sequential reads, tracking the stream offset.
type faultReader struct {
	script *Script
	rules  []*rule
	r      io.Reader
	pos    int64
}

func (f *faultReader) Read(p []byte) (int, error) {
	if !f.script.Enabled() {
		n, err := f.r.Read(p)
		f.pos += int64(n)
		return n, err
	}
	if len(p) == 0 {
		return f.r.Read(p)
	}
	n, truncated, _, ferr := f.script.apply(f.rules, f.pos, len(p))
	if ferr != nil {
		m := 0
		if n > 0 {
			m, _ = io.ReadFull(f.r, p[:n])
			f.pos += int64(m)
		}
		return m, ferr
	}
	if n == 0 && truncated {
		return 0, io.EOF
	}
	m, err := f.r.Read(p[:n])
	f.pos += int64(m)
	if err == nil && truncated && f.pos >= f.truncateAt() {
		err = io.EOF
	}
	return m, err
}

// truncateAt returns the tightest truncation boundary among the rules.
func (f *faultReader) truncateAt() int64 {
	at := int64(1<<63 - 1)
	for _, r := range f.rules {
		if r.kind == KindTruncate && r.off < at {
			at = r.off
		}
	}
	return at
}
