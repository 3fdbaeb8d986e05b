package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// request is one GET the benchmark sends: the DefaultMix endpoint name
// it belongs to and its path with query string.
type request struct {
	endpoint string
	path     string
}

// expectation pins a static artifact's bytes as fetched at set-up: every
// later response for the same path must carry the same ETag, length and
// CRC-32C, across rebuilds too.
type expectation struct {
	etag   string
	length int
	crc    uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// client sends requests over keep-alive loopback connections and checks
// each response. Bodies are read into a per-call reusable buffer and
// never converted to strings.
type client struct {
	hc     *http.Client
	base   string
	expect map[string]expectation // by path; absent for computed responses
	bufs   sync.Pool

	attempted atomic.Int64
	failed    atomic.Int64
	firstErr  atomic.Value // string
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxIdleConnsPerHost: runtime.NumCPU(),
		MaxConnsPerHost:     runtime.NumCPU(),
		DisableCompression:  true,
	}
	c := &client{
		hc:     &http.Client{Transport: tr, Timeout: 60 * time.Second},
		base:   base,
		expect: make(map[string]expectation),
	}
	c.bufs.New = func() any { return new(bytes.Buffer) }
	return c
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// fail counts one failed operation and keeps the first reason.
func (c *client) fail(err error) {
	c.failed.Add(1)
	c.firstErr.CompareAndSwap(nil, err.Error())
}

// firstError is the reason for the first failure, or "".
func (c *client) firstError() string {
	s, _ := c.firstErr.Load().(string)
	return s
}

// get fetches path and checks the response. It reports a transport
// failure, a non-200 status or a body that fails its check.
func (c *client) get(ctx context.Context, path string) error {
	c.attempted.Add(1)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	buf := c.bufs.Get().(*bytes.Buffer)
	defer c.bufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return fmt.Errorf("GET %s: read body: %w", path, err)
	}
	if err := c.check(path, resp, buf.Bytes()); err != nil {
		return fmt.Errorf("GET %s: %w", path, err)
	}
	return nil
}

// check validates one response: 200, a body as long as Content-Length
// says, and either the set-up fingerprint (static artifacts) or a JSON
// object (computed queries).
func (c *client) check(path string, resp *http.Response, body []byte) error {
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	if cl := resp.Header.Get("Content-Length"); cl != "" && cl != strconv.Itoa(len(body)) {
		return fmt.Errorf("read %d bytes, Content-Length %s", len(body), cl)
	}
	if exp, ok := c.expect[path]; ok {
		if got := resp.Header.Get("ETag"); got != exp.etag {
			return fmt.Errorf("ETag %s, set-up fetched %s", got, exp.etag)
		}
		if len(body) != exp.length || crc32.Checksum(body, castagnoli) != exp.crc {
			return fmt.Errorf("body differs from the set-up fetch (%d bytes, want %d)", len(body), exp.length)
		}
		return nil
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "application/json") {
		return fmt.Errorf("content type %q", ct)
	}
	if t := bytes.TrimLeft(body, " \t\r\n"); len(t) == 0 || t[0] != '{' {
		return fmt.Errorf("body is not a JSON object")
	}
	return nil
}

// fetch sends one set-up or control request and returns the response,
// its body already read and closed, or an error for a transport failure
// or a status other than want.
func (c *client) fetch(ctx context.Context, method, path string, want int) (*http.Response, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, nil, fmt.Errorf("%s %s: status %d, want %d", method, path, resp.StatusCode, want)
	}
	return resp, body, nil
}

// pin fetches a static path once and records its fingerprint, so every
// later response for the path is compared byte for byte.
func (c *client) pin(ctx context.Context, path string) error {
	resp, body, err := c.fetch(ctx, http.MethodGet, path, http.StatusOK)
	if err != nil {
		return err
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		return fmt.Errorf("GET %s: no ETag", path)
	}
	c.expect[path] = expectation{etag, len(body), crc32.Checksum(body, castagnoli)}
	return nil
}

// sample is one completed request: its latency, and when it completed
// relative to the start of its phase.
type sample struct {
	latency time.Duration
	at      time.Duration
}

// closedLoop sends reqs one at a time, each after the previous
// completes, and returns their latencies. A failed request is counted
// and excluded from the latencies.
func (c *client) closedLoop(ctx context.Context, tr *tracer, parent int, reqs []request) []sample {
	out := make([]sample, 0, len(reqs))
	start := time.Now()
	for _, r := range reqs {
		t0 := time.Now()
		err := c.get(ctx, r.path)
		t1 := time.Now()
		tr.record("http."+r.endpoint, parent, t0, t1)
		if err != nil {
			c.fail(err)
			continue
		}
		out = append(out, sample{t1.Sub(t0), t1.Sub(start)})
	}
	return out
}

// pacedResult is what an open-loop stream measured: latencies timed
// from each request's due time, and how late each was sent.
type pacedResult struct {
	samples []sample
	late    []time.Duration
}

// paced sends reqs (cycled as needed) at a fixed rate over at most
// workers connections until stop is closed. Request i is due at
// start + i/rate; a request whose connection is still busy at its due
// time waits and is never shed, and its latency runs from the due time,
// so a stall counts against every request queued behind it.
func (c *client) paced(ctx context.Context, tr *tracer, parent int, reqs []request, rate float64, workers int, stop <-chan struct{}) pacedResult {
	var (
		next atomic.Int64
		mu   sync.Mutex
		res  pacedResult
		wg   sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				select {
				case <-stop:
					return
				case <-ctx.Done():
					return
				default:
				}
				r := reqs[int(i)%len(reqs)]
				sent := time.Now()
				err := c.get(ctx, r.path)
				done := time.Now()
				tr.record("http."+r.endpoint, parent, sent, done)
				mu.Lock()
				if err != nil {
					c.fail(err)
				} else {
					res.samples = append(res.samples, sample{done.Sub(due), done.Sub(start)})
					res.late = append(res.late, sent.Sub(due))
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return res
}
