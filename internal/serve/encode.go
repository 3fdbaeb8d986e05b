package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ipv4market/internal/stats"
)

// artifact is one fully rendered response: the JSON body, an optional
// CSV body, and their strong ETags. Artifacts are immutable once built —
// for the static study endpoints they are produced at snapshot-build
// time, for filtered queries on first use (then cached).
type artifact struct {
	json     []byte
	csv      []byte // nil: endpoint has no CSV encoding
	jsonETag string
	csvETag  string
}

// newArtifact encodes v as the JSON body (encodeJSON) and, when csvFn
// is non-nil, renders the CSV body through it (the core package's CSV
// emitters plug in here unchanged).
func newArtifact(v any, csvFn func(io.Writer) error) (*artifact, error) {
	body, err := encodeJSON(v)
	if err != nil {
		return nil, fmt.Errorf("serve: encode: %w", err)
	}
	art := &artifact{json: body, jsonETag: etagOf(body)}
	if csvFn != nil {
		var buf bytes.Buffer
		if err := csvFn(&buf); err != nil {
			return nil, fmt.Errorf("serve: encode csv: %w", err)
		}
		art.csv = buf.Bytes()
		art.csvETag = etagOf(art.csv)
	}
	return art, nil
}

// encodeJSON is the package's one JSON encoder: it returns exactly
// json.MarshalIndent(v, "", "  ") followed by a newline, the form of
// every JSON body the server sends.
func encodeJSON(v any) ([]byte, error) {
	src, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	// MarshalIndent's own estimate: indenting at most doubles a body at
	// the depths views reach, and the room left over takes the newline.
	body := appendIndent(make([]byte, 0, 2*len(src)+1), src, "")
	return append(body, '\n'), nil
}

// appendIndent appends to dst the indented form of src and returns the
// extended buffer: exactly what json.Indent(dst, src, prefix, "  ")
// writes, with "[]" and "{}" for empty containers. src must be
// json.Marshal output, which carries no insignificant whitespace, so
// the bytes between structural characters are copied in runs and string
// literals are skipped whole, with no per-byte scanner state.
func appendIndent(dst, src []byte, prefix string) []byte {
	// pad is "\n", prefix, then at least 2*depth spaces. It starts in a
	// stack array, so indenting a small value (one event row) allocates
	// nothing but dst's growth.
	var padBuf [64]byte
	pad := padBuf[:0]
	depth := 0
	run := 0 // start of the bytes not yet copied to dst
	for i := 0; i < len(src); i++ {
		c := src[i]
		switch c {
		case '"':
			// Skip to the closing quote, stepping over each escape's
			// second byte (Marshal escapes every quote inside a string).
			for i++; src[i] != '"'; i++ {
				if src[i] == '\\' {
					i++
				}
			}
			continue
		case '{', '[':
			if i+1 < len(src) && src[i+1] == c+2 { // '}' and ']' sit 2 above their openers
				i++ // an empty container stays "{}" or "[]"
				continue
			}
			depth++
			dst = append(dst, src[run:i+1]...)
			run = i + 1
		case '}', ']':
			depth--
			dst = append(dst, src[run:i]...)
			run = i
		case ',':
			dst = append(dst, src[run:i+1]...)
			run = i + 1
		case ':':
			dst = append(append(dst, src[run:i+1]...), ' ')
			run = i + 1
			continue
		default:
			continue
		}
		n := 1 + len(prefix) + 2*depth
		if len(pad) < n {
			pad = append(append(pad[:0], '\n'), prefix...)
			for len(pad) < n+16 {
				pad = append(pad, ' ')
			}
		}
		dst = append(dst, pad[:n]...)
	}
	return append(dst, src[run:]...)
}

// etagOf returns a strong entity tag for a response body: the FNV-1a
// hash in quoted hex.
func etagOf(b []byte) string {
	h := fnv.New64a()
	h.Write(b)
	var buf [len(`"ffffffffffffffff"`)]byte
	tag := strconv.AppendUint(append(buf[:0], '"'), h.Sum64(), 16)
	return string(append(tag, '"'))
}

// queryOf parses the request's query parameters exactly once per
// request. Handlers thread the returned values through every helper
// that needs them instead of re-parsing r.URL.Query() (which allocates
// a fresh map each call). A request with no query string returns nil —
// Get on nil url.Values safely answers "".
func queryOf(r *http.Request) url.Values {
	if r.URL.RawQuery == "" {
		return nil
	}
	return r.URL.Query()
}

// wantCSV reports whether the request asks for the CSV encoding, via
// ?format=csv or an Accept header preferring text/csv. q is the
// request's parsed query (queryOf).
func wantCSV(r *http.Request, q url.Values) bool {
	switch q.Get("format") {
	case "csv":
		return true
	case "json", "":
	default:
		return false
	}
	return strings.Contains(r.Header.Get("Accept"), "text/csv") &&
		q.Get("format") == ""
}

// serveArtifact serves one encoding of art through http.ServeContent,
// which supplies the conditional-request machinery (If-None-Match →
// 304, Range and If-Range against the pre-set strong ETag) for every
// artifact endpoint. The body is always the in-memory one: every
// snapshot, built, restored or pinned, holds its artifacts' bytes, so
// no request opens a segment file. ServeContent copies the body
// through the statusWriter, whose ReadFrom sends a whole body in one
// Write. computed marks a response rendered per query (filters,
// lookups, as-of views), which /varz counts apart from static artifacts.
func (s *Server) serveArtifact(w http.ResponseWriter, r *http.Request, q url.Values, art *artifact, computed bool) {
	body, etag, ctype := art.json, art.jsonETag, "application/json"
	if wantCSV(r, q) {
		if art.csv == nil {
			writeError(w, http.StatusBadRequest, "no CSV encoding for this endpoint")
			return
		}
		body, etag, ctype = art.csv, art.csvETag, "text/csv; charset=utf-8"
	}
	h := w.Header()
	h.Set("ETag", etag)
	h.Set("Cache-Control", "no-cache")
	h.Set("Content-Type", ctype)
	if computed {
		s.metrics.artifactComputed.Add(1)
	} else {
		s.metrics.artifactMemReads.Add(1)
	}
	http.ServeContent(w, r, "", time.Time{}, bytes.NewReader(body))
}

// errorBody is the JSON error document every non-2xx response carries.
type errorBody struct {
	Error string `json:"error"`
}

// writeError emits the JSON error document with the given status.
func writeError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	body, err := json.Marshal(errorBody{Error: msg})
	if err != nil {
		return // marshal of a plain string cannot fail
	}
	w.Write(append(body, '\n'))
}

// writeJSON encodes v directly (uncached endpoints: /readyz, /varz).
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := encodeJSON(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// parseQuarter parses the "2019Q2" form used in query filters and CSV
// output.
func parseQuarter(s string) (stats.Quarter, error) {
	i := strings.IndexByte(s, 'Q')
	if i < 0 {
		return stats.Quarter{}, fmt.Errorf("serve: quarter %q: want YYYYQn", s)
	}
	year, err := strconv.Atoi(s[:i])
	if err != nil {
		return stats.Quarter{}, fmt.Errorf("serve: quarter %q: bad year", s)
	}
	q, err := strconv.Atoi(s[i+1:])
	if err != nil || q < 1 || q > 4 {
		return stats.Quarter{}, fmt.Errorf("serve: quarter %q: bad quarter index", s)
	}
	return stats.Quarter{Year: year, Q: q}, nil
}
