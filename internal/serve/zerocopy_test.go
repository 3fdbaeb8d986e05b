package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"testing"

	"ipv4market/internal/market"
	"ipv4market/internal/store"
)

// storedServer builds a server persisting into a fresh store, so the
// artifact endpoints exercise the zero-copy segment-file path.
func storedServer(t *testing.T) (*Server, *store.Store, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(testConfig(), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if srv.Snapshot().Gen == 0 {
		t.Fatal("snapshot was not persisted")
	}
	return srv, st, dir
}

// filterPriceCells returns the cells matching the (optional) filters; a
// nil filter component matches everything. With priceCellsCSV it is the
// row-at-a-time reference the columnar price table must reproduce.
func filterPriceCells(cells []market.PriceCell, match func(market.PriceCell) bool) []market.PriceCell {
	out := make([]market.PriceCell, 0, len(cells))
	for _, c := range cells {
		if match(c) {
			out = append(out, c)
		}
	}
	return out
}

// priceCellsCSV renders filtered price cells in the Figure1CSV column
// layout so filtered and unfiltered responses share a schema.
func priceCellsCSV(cells []market.PriceCell) func(io.Writer) error {
	return func(w io.Writer) error {
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"quarter", "prefix_bits", "region", "n", "min", "q1", "median", "q3", "max", "mean"}); err != nil {
			return err
		}
		f2 := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
		for _, c := range cells {
			err := cw.Write([]string{
				c.Quarter.String(), strconv.Itoa(c.Bits), c.Region.String(),
				strconv.Itoa(c.Box.N), f2(c.Box.Min), f2(c.Box.Q1), f2(c.Box.Median),
				f2(c.Box.Q3), f2(c.Box.Max), f2(c.Box.Mean),
			})
			if err != nil {
				return err
			}
		}
		cw.Flush()
		return cw.Error()
	}
}

// TestPriceTableRenderIdentity pins the columnar fast path to the
// row-at-a-time reference: for a spread of filters, render must produce
// byte-identical JSON and CSV bodies (hence identical ETags) to
// newArtifact over filterPriceCells.
func TestPriceTableRenderIdentity(t *testing.T) {
	snap := sharedServer(t).Snapshot()
	if snap.prices == nil {
		t.Fatal("built snapshot lacks the columnar price table")
	}
	if snap.prices.len() != len(snap.PriceCells) {
		t.Fatalf("table has %d rows, snapshot %d cells", snap.prices.len(), len(snap.PriceCells))
	}

	filters := []string{
		"size=/16",
		"size=/24",
		"region=ARIN",
		"region=RIPE NCC",
		"quarter=2019Q2",
		"size=/16&region=ARIN",
		"size=/16&region=ARIN&quarter=2019Q4",
		"size=/7", // matches nothing: the empty-document layout
	}
	matchedSomething := false
	for _, raw := range filters {
		q, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatal(err)
		}
		f, err := parsePriceFilter(q)
		if err != nil {
			t.Fatalf("filter %q: %v", raw, err)
		}
		cells := filterPriceCells(snap.PriceCells, f.match)
		want, err := newArtifact(viewPriceCells(cells), priceCellsCSV(cells))
		if err != nil {
			t.Fatal(err)
		}
		got := snap.prices.render(f)
		if !bytes.Equal(got.json, want.json) {
			t.Errorf("filter %q: columnar JSON differs from reference\n got: %q\nwant: %q", raw, got.json, want.json)
		}
		if !bytes.Equal(got.csv, want.csv) {
			t.Errorf("filter %q: columnar CSV differs from reference", raw)
		}
		if got.jsonETag != want.jsonETag || got.csvETag != want.csvETag {
			t.Errorf("filter %q: ETags differ: %s/%s vs %s/%s", raw, got.jsonETag, got.csvETag, want.jsonETag, want.csvETag)
		}
		if len(cells) > 0 {
			matchedSomething = true
		}
	}
	if !matchedSomething {
		t.Fatal("every test filter matched zero cells; test world too small?")
	}
}

// TestArtifactRangeRequests checks the Range/If-Range machinery on the
// artifact endpoints, on both the zero-copy file path (store-backed)
// and the in-memory path (storeless) — the two must behave identically.
func TestArtifactRangeRequests(t *testing.T) {
	stored, _, _ := storedServer(t)
	for name, srv := range map[string]*Server{"file": stored, "memory": sharedServer(t)} {
		t.Run(name, func(t *testing.T) {
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()

			for _, path := range []string{"/v1/table1", "/v1/prices", "/v1/table1?format=csv"} {
				resp, full := get(t, ts, path)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("%s: status %d", path, resp.StatusCode)
				}
				etag := resp.Header.Get("ETag")
				if resp.Header.Get("Accept-Ranges") != "bytes" {
					t.Errorf("%s: Accept-Ranges = %q, want bytes", path, resp.Header.Get("Accept-Ranges"))
				}

				req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
				if err != nil {
					t.Fatal(err)
				}
				req.Header.Set("Range", "bytes=5-24")
				resp2, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				part, _ := io.ReadAll(resp2.Body)
				resp2.Body.Close()
				if resp2.StatusCode != http.StatusPartialContent {
					t.Fatalf("%s range: status %d, want 206", path, resp2.StatusCode)
				}
				if !bytes.Equal(part, full[5:25]) {
					t.Errorf("%s range: got %q, want %q", path, part, full[5:25])
				}
				if resp2.Header.Get("ETag") != etag {
					t.Errorf("%s range: ETag changed", path)
				}

				// If-Range with the current ETag: the range is honored.
				req.Header.Set("If-Range", etag)
				resp3, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				io.Copy(io.Discard, resp3.Body)
				resp3.Body.Close()
				if resp3.StatusCode != http.StatusPartialContent {
					t.Errorf("%s if-range match: status %d, want 206", path, resp3.StatusCode)
				}

				// If-Range with a stale ETag: full body, 200.
				req.Header.Set("If-Range", `"0000000000000000"`)
				resp4, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body4, _ := io.ReadAll(resp4.Body)
				resp4.Body.Close()
				if resp4.StatusCode != http.StatusOK {
					t.Errorf("%s if-range stale: status %d, want 200", path, resp4.StatusCode)
				}
				if !bytes.Equal(body4, full) {
					t.Errorf("%s if-range stale: body differs from full response", path)
				}
			}
		})
	}
}

// TestZeroCopyFileReads checks a store-backed server serves static
// artifacts from the sealed segment (not the in-memory copy) and
// reports it on /varz, and that the bytes and ETag match the in-memory
// artifact exactly.
func TestZeroCopyFileReads(t *testing.T) {
	srv, _, _ := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	art, ok := srv.Snapshot().staticArtifact("table1")
	if !ok {
		t.Fatal("no table1 artifact")
	}
	resp, body := get(t, ts, "/v1/table1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !bytes.Equal(body, art.json) {
		t.Error("file-served body differs from the in-memory artifact")
	}
	if resp.Header.Get("ETag") != art.jsonETag {
		t.Errorf("ETag %s, want %s", resp.Header.Get("ETag"), art.jsonETag)
	}
	get(t, ts, "/v1/table1?format=csv")
	get(t, ts, "/v1/prices")

	if got := srv.metrics.artifactFileReads.Load(); got < 3 {
		t.Errorf("file reads = %d, want >= 3", got)
	}
	if got := srv.metrics.artifactFallbacks.Load(); got != 0 {
		t.Errorf("fallbacks = %d, want 0", got)
	}

	_, raw := get(t, ts, "/varz")
	var v struct {
		ZeroCopy *varzZeroCopy `json:"zero_copy"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.ZeroCopy == nil || v.ZeroCopy.FileReads < 3 {
		t.Errorf("varz zero_copy = %+v, want file_reads >= 3", v.ZeroCopy)
	}
}

// TestZeroCopyCounters checks how /varz zero_copy splits responses: a
// computed response moves only computed, never mem_reads; a static
// artifact moves only file_reads on a store-backed server and only
// mem_reads on a storeless one.
func TestZeroCopyCounters(t *testing.T) {
	stored, _, _ := storedServer(t)
	storedTS := httptest.NewServer(stored.Handler())
	defer storedTS.Close()
	memTS := httptest.NewServer(sharedServer(t).Handler())
	defer memTS.Close()

	counters := func(ts *httptest.Server) varzZeroCopy {
		_, raw := get(t, ts, "/varz")
		var v struct {
			ZeroCopy *varzZeroCopy `json:"zero_copy"`
		}
		if err := json.Unmarshal(raw, &v); err != nil {
			t.Fatal(err)
		}
		if v.ZeroCopy == nil {
			t.Fatal("varz has no zero_copy section")
		}
		return *v.ZeroCopy
	}
	computed := func(v varzZeroCopy) varzZeroCopy { v.Computed++; return v }
	for _, c := range []struct {
		ts   *httptest.Server
		path string
		want func(varzZeroCopy) varzZeroCopy
	}{
		{storedTS, "/v1/prices?size=/16", computed},
		{storedTS, "/v1/delegations?prefix=185.0.0.0/16", computed},
		{storedTS, "/v1/asof?date=2019-06-01&prefix=185.0.0.0/16", computed},
		{storedTS, "/v1/transfers", func(v varzZeroCopy) varzZeroCopy { v.FileReads++; return v }},
		{memTS, "/v1/transfers", func(v varzZeroCopy) varzZeroCopy { v.MemReads++; return v }},
	} {
		before := counters(c.ts)
		if resp, _ := get(t, c.ts, c.path); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d", c.path, resp.StatusCode)
		}
		if got, want := counters(c.ts), c.want(before); got != want {
			t.Errorf("%s: zero_copy %+v -> %+v, want %+v", c.path, before, got, want)
		}
	}
}

// TestDeletedSegmentFallback deletes the sealed segment out from under
// a store-backed server: requests must degrade to the in-memory copy —
// identical bytes, identical ETag, no error — and the degradation must
// be visible on /varz.
func TestDeletedSegmentFallback(t *testing.T) {
	srv, st, dir := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, before := get(t, ts, "/v1/table1")
	etag := resp.Header.Get("ETag")
	if fb := srv.metrics.artifactFallbacks.Load(); fb != 0 {
		t.Fatalf("fallbacks before deletion = %d", fb)
	}

	g, ok := st.Generation(srv.Snapshot().Gen)
	if !ok {
		t.Fatal("serving generation not in store")
	}
	if err := os.Remove(filepath.Join(dir, g.File)); err != nil {
		t.Fatal(err)
	}

	resp2, after := get(t, ts, "/v1/table1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-deletion status %d", resp2.StatusCode)
	}
	if !bytes.Equal(before, after) {
		t.Error("fallback body differs from the file-served body")
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("fallback ETag %s, want %s", resp2.Header.Get("ETag"), etag)
	}
	if fb := srv.metrics.artifactFallbacks.Load(); fb != 1 {
		t.Errorf("fallbacks = %d, want 1", fb)
	}

	_, raw := get(t, ts, "/varz")
	var v struct {
		ZeroCopy *varzZeroCopy `json:"zero_copy"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.ZeroCopy == nil || v.ZeroCopy.Fallbacks != 1 {
		t.Errorf("varz zero_copy = %+v, want fallbacks = 1", v.ZeroCopy)
	}
}

// TestArtifactSendfileOverTCP holds the bytes allocated per store-backed
// artifact response, over a real loopback connection, well below one
// copy buffer. http.ServeContent hands the body over as an
// io.LimitedReader around the segment section; unless statusWriter
// unwraps it to the segment file, net/http falls back to a generic copy
// through a fresh 32 KiB buffer and the figure reads about 40 KiB.
// Client and server share this process, so the figure counts both.
// Under the race detector sync.Pool drops a quarter of what is put
// back, so net/http's pooled 32 KiB copy buffer costs another 8 KiB a
// response on average; the race budget leaves 4 KiB over that for the
// spread (measured: about 18 KiB, against 48-54 KiB without the unwrap).
func TestArtifactSendfileOverTCP(t *testing.T) {
	srv, _, _ := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	const requests = 200
	budget := uint64(16 << 10)
	if raceBuild() {
		budget += 12 << 10
	}
	for _, path := range []string{"/v1/transfers", "/v1/prices"} {
		var size int64
		fetch := func() {
			resp, err := client.Get(ts.URL + path)
			if err != nil {
				t.Fatalf("GET %s: %v", path, err)
			}
			size, err = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s: status %d, %v", path, resp.StatusCode, err)
			}
		}
		fetch() // open the keep-alive connection outside the count
		reads := srv.metrics.artifactFileReads.Load()
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		for range requests {
			fetch()
		}
		metrics.Read(allocs)
		perReq := (allocs[0].Value.Uint64() - before) / requests
		t.Logf("%s: %d B allocated per %d-byte response (budget %d)", path, perReq, size, budget)
		if got := srv.metrics.artifactFileReads.Load() - reads; got != requests {
			t.Fatalf("%s: %d of %d responses came from the segment file", path, got, requests)
		}
		if perReq > budget {
			t.Errorf("%s: %d B allocated per response, budget %d: the body is copied through a buffer instead of sendfile",
				path, perReq, budget)
		}
	}
}

// TestArtifactSendfileRange checks that the sendfile path starts where
// http.ServeContent's Seek left the section: a single range from the
// middle of /v1/transfers, plain and under If-Range with the served
// ETag, returns exactly that slice of the in-memory body.
func TestArtifactSendfileRange(t *testing.T) {
	srv, _, _ := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	art, ok := srv.Snapshot().staticArtifact("transfers")
	if !ok {
		t.Fatal("no transfers artifact")
	}
	full := art.json
	if len(full) < 4096 {
		t.Fatalf("transfers body is %d bytes; too small to take a range from its middle", len(full))
	}
	first, last := len(full)/3, 2*len(full)/3
	for name, ifRange := range map[string]string{"range": "", "if-range": art.jsonETag} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/transfers", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Range", "bytes="+strconv.Itoa(first)+"-"+strconv.Itoa(last))
		if ifRange != "" {
			req.Header.Set("If-Range", ifRange)
		}
		reads := srv.metrics.artifactFileReads.Load()
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		part, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusPartialContent {
			t.Fatalf("%s: status %d, want 206", name, resp.StatusCode)
		}
		if srv.metrics.artifactFileReads.Load() != reads+1 {
			t.Errorf("%s: response did not come from the segment file", name)
		}
		if !bytes.Equal(part, full[first:last+1]) {
			t.Errorf("%s: got %d bytes, want bytes %d-%d of the body (%d bytes)", name, len(part), first, last, last-first+1)
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
