package server

import (
	"fmt"
	"math"
	"net/http"
	"testing"
	"time"
)

// parseRangeRows are RFC 7233 edge cases for parseRange: every row
// resolves a raw Range header against an object size with its exact
// disposition — 200-full (ok=false, err=nil), 206 with a specific slice,
// or 416. They also seed FuzzParseRange.
var parseRangeRows = []struct {
	name string
	spec string
	size int64

	wantOK  bool
	wantOff int64
	wantLen int64
	want416 bool
}{
	// Plain ranges.
	{name: "first byte", spec: "bytes=0-0", size: 100, wantOK: true, wantOff: 0, wantLen: 1},
	{name: "interior", spec: "bytes=10-19", size: 100, wantOK: true, wantOff: 10, wantLen: 10},
	{name: "open ended", spec: "bytes=90-", size: 100, wantOK: true, wantOff: 90, wantLen: 10},
	{name: "exact last byte", spec: "bytes=99-99", size: 100, wantOK: true, wantOff: 99, wantLen: 1},

	// End clamping: last-byte-pos past the end is clamped, not
	// rejected (RFC 7233 §2.1).
	{name: "end clamped to size-1", spec: "bytes=90-1000", size: 100, wantOK: true, wantOff: 90, wantLen: 10},
	{name: "end exactly size", spec: "bytes=0-100", size: 100, wantOK: true, wantOff: 0, wantLen: 100},
	{name: "end exactly size-1", spec: "bytes=0-99", size: 100, wantOK: true, wantOff: 0, wantLen: 100},

	// First-byte-pos at or past the end selects nothing: 416.
	{name: "start at size", spec: "bytes=100-", size: 100, want416: true},
	{name: "start past size", spec: "bytes=500-600", size: 100, want416: true},
	{name: "start at size on size 1", spec: "bytes=1-1", size: 1, want416: true},

	// Suffix ranges ("-n": final n bytes).
	{name: "suffix interior", spec: "bytes=-10", size: 100, wantOK: true, wantOff: 90, wantLen: 10},
	{name: "suffix longer than object", spec: "bytes=-500", size: 100, wantOK: true, wantOff: 0, wantLen: 100},
	{name: "suffix whole of size 1", spec: "bytes=-1", size: 1, wantOK: true, wantOff: 0, wantLen: 1},
	{name: "suffix overlong on size 1", spec: "bytes=-2", size: 1, wantOK: true, wantOff: 0, wantLen: 1},
	// A zero-length suffix or any suffix of an empty object selects
	// no bytes: 416, not an ignored header.
	{name: "suffix zero", spec: "bytes=-0", size: 100, want416: true},
	{name: "suffix on size 0", spec: "bytes=-1", size: 0, want416: true},
	{name: "suffix zero on size 0", spec: "bytes=-0", size: 0, want416: true},
	// Any first-byte-pos against an empty object is past the end.
	{name: "open range on size 0", spec: "bytes=0-", size: 0, want416: true},

	// Ignored forms: full 200 response.
	{name: "no header", spec: "", size: 100},
	{name: "unknown unit", spec: "lines=0-10", size: 100},
	{name: "multipart", spec: "bytes=0-1,5-6", size: 100},
	{name: "bare dash", spec: "bytes=-", size: 100},
	{name: "no dash", spec: "bytes=5", size: 100},
	{name: "garbage first", spec: "bytes=x-10", size: 100},
	{name: "garbage last", spec: "bytes=0-x", size: 100},
	{name: "negative first", spec: "bytes=--5", size: 100},
	{name: "end before start", spec: "bytes=10-5", size: 100},
}

func TestParseRangeTable(t *testing.T) {
	for _, tt := range parseRangeRows {
		t.Run(tt.name, func(t *testing.T) {
			rng, ok, err := parseRange(tt.spec, tt.size)
			if tt.want416 {
				if err != errUnsatisfiable {
					t.Fatalf("parseRange(%q, %d) err = %v, want errUnsatisfiable", tt.spec, tt.size, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseRange(%q, %d) err = %v", tt.spec, tt.size, err)
			}
			if ok != tt.wantOK {
				t.Fatalf("parseRange(%q, %d) ok = %v, want %v", tt.spec, tt.size, ok, tt.wantOK)
			}
			if ok && (rng.off != tt.wantOff || rng.length != tt.wantLen) {
				t.Fatalf("parseRange(%q, %d) = [%d,+%d], want [%d,+%d]",
					tt.spec, tt.size, rng.off, rng.length, tt.wantOff, tt.wantLen)
			}
		})
	}
}

// FuzzParseRange holds parseRange to its contract for any header and any
// size ≥ 0: it never panics; a served range lies inside the object, is not
// empty, and parses back from its own "bytes=first-last" spelling; and a
// 416 only answers a range that selects no byte of the object — grown by
// a byte or doubled, the object either still serves none of the range or
// serves it from the old end on.
func FuzzParseRange(f *testing.F) {
	for _, tt := range parseRangeRows {
		f.Add(tt.spec, tt.size)
	}
	f.Fuzz(func(t *testing.T, spec string, size int64) {
		if size < 0 {
			return
		}
		rng, ok, err := parseRange(spec, size)
		if err != nil && (ok || err != errUnsatisfiable) {
			t.Fatalf("parseRange(%q, %d) = ok %v, err %v", spec, size, ok, err)
		}
		if ok {
			if rng.off < 0 || rng.off >= size || rng.length < 1 || rng.length > size-rng.off {
				t.Fatalf("parseRange(%q, %d) = [%d,+%d]: not a non-empty range of the object", spec, size, rng.off, rng.length)
			}
			back := fmt.Sprintf("bytes=%d-%d", rng.off, rng.off+rng.length-1)
			if again, ok, err := parseRange(back, size); !ok || err != nil || again != rng {
				t.Fatalf("parseRange(%q, %d) = [%d,+%d], but %q parses to [%d,+%d] ok %v err %v",
					spec, size, rng.off, rng.length, back, again.off, again.length, ok, err)
			}
		}
		if err == errUnsatisfiable && size < math.MaxInt64/2 {
			for _, grown := range []int64{size + 1, 2*size + 1} {
				if g, ok, _ := parseRange(spec, grown); ok && g.off < size {
					t.Fatalf("parseRange(%q, %d) is 416, yet at size %d it serves [%d,+%d]", spec, size, grown, g.off, g.length)
				}
			}
		}
	})
}

// RFC 7232 conditional-GET evaluation: If-None-Match lists (weak
// comparison) take precedence over If-Modified-Since.
func TestNotModifiedTable(t *testing.T) {
	mtime := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC)
	httpDate := func(t time.Time) string { return t.UTC().Format(http.TimeFormat) }
	const etag = `"abc123"`
	tests := []struct {
		name string
		inm  string
		ims  string
		want bool
	}{
		{name: "no validators", want: false},
		{name: "etag match", inm: `"abc123"`, want: true},
		{name: "etag mismatch", inm: `"zzz"`, want: false},
		{name: "star matches anything", inm: "*", want: true},
		// If-None-Match uses the weak comparison: W/ prefixes are
		// stripped on both sides.
		{name: "weak candidate vs strong etag", inm: `W/"abc123"`, want: true},
		{name: "list with match last", inm: `"first", "second", "abc123"`, want: true},
		{name: "list without match", inm: `"first", "second"`, want: false},
		{name: "list with star", inm: `"first", *`, want: true},
		// If-Modified-Since only consulted without If-None-Match.
		{name: "ims not modified since", ims: httpDate(mtime), want: true},
		{name: "ims later than mtime", ims: httpDate(mtime.Add(time.Hour)), want: true},
		{name: "ims before mtime", ims: httpDate(mtime.Add(-time.Hour)), want: false},
		{name: "ims unparseable", ims: "not a date", want: false},
		// A failing If-None-Match suppresses the If-Modified-Since
		// check entirely (RFC 7232 §6 precedence).
		{name: "inm miss overrides ims hit", inm: `"zzz"`, ims: httpDate(mtime), want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := notModified(tt.inm, tt.ims, etag, mtime); got != tt.want {
				t.Fatalf("notModified(%q, %q) = %v, want %v", tt.inm, tt.ims, got, tt.want)
			}
		})
	}
}

// RFC 7233 §3.2 If-Range: entity tags must match strongly (weak
// validators never apply), dates must equal Last-Modified exactly at
// one-second resolution.
func TestIfRangeAppliesTable(t *testing.T) {
	mtime := time.Date(2026, 3, 1, 12, 0, 0, 0, time.UTC).Add(500 * time.Millisecond)
	const etag = `"abc123"`
	tests := []struct {
		name    string
		ifRange string
		want    bool
	}{
		{name: "absent applies", ifRange: "", want: true},
		{name: "strong match", ifRange: `"abc123"`, want: true},
		{name: "strong mismatch", ifRange: `"zzz"`, want: false},
		// Weak-vs-strong: a weak validator can never prove the selected
		// representation is byte-identical, so it never honors a range —
		// even when the opaque tag matches.
		{name: "weak candidate same tag", ifRange: `W/"abc123"`, want: false},
		{name: "weak candidate other tag", ifRange: `W/"zzz"`, want: false},
		// Dates compare at header resolution: sub-second mtime detail
		// must not defeat an otherwise exact match.
		{name: "date equal to the second", ifRange: mtime.UTC().Format(http.TimeFormat), want: true},
		{name: "date one second earlier", ifRange: mtime.Add(-time.Second).UTC().Format(http.TimeFormat), want: false},
		{name: "date one second later", ifRange: mtime.Add(time.Second).UTC().Format(http.TimeFormat), want: false},
		{name: "unparseable", ifRange: "not a validator", want: false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := ifRangeApplies(tt.ifRange, etag, mtime); got != tt.want {
				t.Fatalf("ifRangeApplies(%q) = %v, want %v", tt.ifRange, got, tt.want)
			}
		})
	}
}
