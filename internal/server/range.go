package server

import (
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"
)

// HTTP range-request plumbing (RFC 7233): parsing a Range header against
// the *decompressed* object size, and the If-Range validator check that
// decides whether the range still applies.

// byteRange is one resolved, satisfiable request range over the
// decompressed stream.
type byteRange struct {
	off, length int64
}

// contentRange renders the Content-Range response header value.
func (r byteRange) contentRange(size int64) string {
	b := strconv.AppendInt(append(make([]byte, 0, 72), "bytes "...), r.off, 10) // 72: three int64s fit, on the stack
	b = strconv.AppendInt(append(b, '-'), r.off+r.length-1, 10)
	b = strconv.AppendInt(append(b, '/'), size, 10)
	return string(b)
}

// errUnsatisfiable reports a syntactically valid Range that selects no
// bytes of the object (→ 416 with Content-Range: bytes */size).
var errUnsatisfiable = fmt.Errorf("range not satisfiable")

// parseRange resolves a Range header against the object size. The
// returns are:
//
//	ok=false, err=nil — serve the full object with 200: no header,
//	  a syntactically invalid one (which RFC 7233 says to ignore), or a
//	  multi-range request (a server MAY ignore Range; we serve single
//	  ranges only and fall back to the whole object for multipart).
//	ok=true — serve rng with 206.
//	err=errUnsatisfiable — respond 416.
func parseRange(spec string, size int64) (rng byteRange, ok bool, err error) {
	if spec == "" {
		return rng, false, nil
	}
	const prefix = "bytes="
	if !strings.HasPrefix(spec, prefix) {
		return rng, false, nil // unknown unit: ignore
	}
	body := strings.TrimSpace(spec[len(prefix):])
	if body == "" || strings.Contains(body, ",") {
		return rng, false, nil
	}
	dash := strings.IndexByte(body, '-')
	if dash < 0 {
		return rng, false, nil
	}
	first, last := strings.TrimSpace(body[:dash]), strings.TrimSpace(body[dash+1:])
	switch {
	case first == "" && last == "":
		return rng, false, nil
	case first == "":
		// Suffix range "-n": the final n bytes.
		n, perr := strconv.ParseInt(last, 10, 64)
		if perr != nil || n < 0 {
			return rng, false, nil
		}
		if n == 0 || size == 0 {
			return rng, false, errUnsatisfiable
		}
		if n > size {
			n = size
		}
		return byteRange{off: size - n, length: n}, true, nil
	default:
		off, perr := strconv.ParseInt(first, 10, 64)
		if perr != nil || off < 0 {
			return rng, false, nil
		}
		if off >= size {
			return rng, false, errUnsatisfiable
		}
		if last == "" {
			// "a-": from a to the end.
			return byteRange{off: off, length: size - off}, true, nil
		}
		end, perr := strconv.ParseInt(last, 10, 64)
		if perr != nil || end < off {
			return rng, false, nil
		}
		if end >= size {
			end = size - 1
		}
		return byteRange{off: off, length: end - off + 1}, true, nil
	}
}

// notModified evaluates the conditional-GET validators (RFC 7232):
// If-None-Match against the current ETag (weak comparison, as the RFC
// prescribes for If-None-Match), else If-Modified-Since against
// Last-Modified. True means respond 304.
func notModified(inm, ims, etag string, mtime time.Time) bool {
	if inm != "" {
		for _, cand := range strings.Split(inm, ",") {
			cand = strings.TrimSpace(cand)
			if cand == "*" || strings.TrimPrefix(cand, "W/") == strings.TrimPrefix(etag, "W/") {
				return true
			}
		}
		return false
	}
	if ims != "" {
		if t, err := http.ParseTime(ims); err == nil {
			return !mtime.Truncate(time.Second).After(t.Truncate(time.Second))
		}
	}
	return false
}

// ifRangeApplies reports whether a Range header should be honored given
// the request's If-Range validator: absent → yes; an entity tag → only
// on a strong match with the current ETag; an HTTP date → only when it
// equals the current Last-Modified (to one-second granularity, the
// header's resolution).
func ifRangeApplies(ifRange, etag string, mtime time.Time) bool {
	if ifRange == "" {
		return true
	}
	if strings.HasPrefix(ifRange, `"`) || strings.HasPrefix(ifRange, "W/") {
		// Weak validators never match for ranges.
		return !strings.HasPrefix(ifRange, "W/") && ifRange == etag
	}
	t, err := http.ParseTime(ifRange)
	if err != nil {
		return false
	}
	return mtime.Truncate(time.Second).Equal(t.Truncate(time.Second))
}
