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
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"ipv4market/internal/market"
	"ipv4market/internal/store"
)

// storedServer builds a server persisting into a fresh store, so its
// snapshot carries a persisted generation whose segment file tests can
// delete from under it.
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
// artifact endpoints of a store-backed ("file") and a storeless
// ("memory") server — the two must behave identically.
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

// TestZeroCopyFileReads pins the bytes a store-backed server sends for
// every static path to its sealed segment copy: the body and ETag must
// equal both the in-memory artifact and the frame Store.Load reads back
// from the segment file, so serving from memory sends exactly what was
// persisted. Each response counts as a mem_read on /varz.
func TestZeroCopyFileReads(t *testing.T) {
	srv, st, _ := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type encoding struct {
		query, ctype, etag string
		body               []byte
	}
	snap := srv.Snapshot()
	_, arts, err := st.Load(snap.Gen)
	if err != nil {
		t.Fatal(err)
	}
	sealed := make(map[[2]string]store.Artifact, len(arts))
	for _, a := range arts {
		sealed[[2]string{a.Key, a.ContentType}] = a
	}
	checked := 0
	for key, art := range snap.static {
		path := "/v1/" + key
		if id, ok := strings.CutPrefix(key, "fig"); ok {
			path = "/v1/figures/" + id
		}
		encodings := []encoding{{"", ctypeJSON, art.jsonETag, art.json}}
		if art.csv != nil {
			encodings = append(encodings, encoding{"?format=csv", ctypeCSV, art.csvETag, art.csv})
		}
		for _, enc := range encodings {
			stored, ok := sealed[[2]string{key, enc.ctype}]
			if !ok {
				t.Fatalf("segment has no %s frame for %q", enc.ctype, key)
			}
			if !bytes.Equal(stored.Body, enc.body) || stored.ETag != enc.etag {
				t.Errorf("%s%s: sealed segment copy differs from the in-memory artifact", path, enc.query)
			}
			resp, body := get(t, ts, path+enc.query)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s%s: status %d", path, enc.query, resp.StatusCode)
			}
			if !bytes.Equal(body, stored.Body) {
				t.Errorf("%s%s: served body differs from the sealed segment copy", path, enc.query)
			}
			if got := resp.Header.Get("ETag"); got != stored.ETag {
				t.Errorf("%s%s: ETag %s, want the stored %s", path, enc.query, got, stored.ETag)
			}
			checked++
		}
	}
	if checked < 12 {
		t.Fatalf("only %d static bodies checked", checked)
	}

	_, raw := get(t, ts, "/varz")
	var v struct {
		ZeroCopy *varzZeroCopy `json:"zero_copy"`
	}
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	if v.ZeroCopy == nil || v.ZeroCopy.MemReads < int64(checked) {
		t.Errorf("varz zero_copy = %+v, want mem_reads >= %d", v.ZeroCopy, checked)
	}
}

// TestDeletedSegmentFallback deletes the serving generation's segment
// out from under a store-backed server: the store can no longer load
// the generation, yet the server answers from memory with identical bytes
// and ETag, and /varz counts the response as a mem_read.
func TestDeletedSegmentFallback(t *testing.T) {
	srv, st, dir := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	resp, before := get(t, ts, "/v1/table1")
	etag := resp.Header.Get("ETag")

	gen := srv.Snapshot().Gen
	g, ok := st.Generation(gen)
	if !ok {
		t.Fatal("serving generation not in store")
	}
	if err := os.Remove(filepath.Join(dir, g.File)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Load(gen); err == nil {
		t.Fatal("Load succeeded on a deleted segment")
	}

	readVarz := func() varzZeroCopy {
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
	was := readVarz()
	resp2, after := get(t, ts, "/v1/table1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-deletion status %d", resp2.StatusCode)
	}
	if !bytes.Equal(before, after) {
		t.Error("post-deletion body differs from the one served before")
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("post-deletion ETag %s, want %s", resp2.Header.Get("ETag"), etag)
	}
	if now := readVarz(); now.MemReads != was.MemReads+1 || now.Computed != was.Computed {
		t.Errorf("zero_copy %+v -> %+v, want one more mem_read", was, now)
	}
}

// TestZeroCopyCounters checks how /varz zero_copy splits responses: a
// computed response moves only computed, a static artifact only
// mem_reads, on a store-backed and a storeless server alike.
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
	static := func(v varzZeroCopy) varzZeroCopy { v.MemReads++; return v }
	for _, c := range []struct {
		ts   *httptest.Server
		path string
		want func(varzZeroCopy) varzZeroCopy
	}{
		{storedTS, "/v1/prices?size=/16", computed},
		{storedTS, "/v1/delegations?prefix=185.0.0.0/16", computed},
		{storedTS, "/v1/asof?date=2019-06-01&prefix=185.0.0.0/16", computed},
		{storedTS, "/v1/transfers", static},
		{memTS, "/v1/transfers", static},
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

// staticPaths lists the request path of every encoding of every static
// artifact snap serves: each key's JSON path, plus its ?format=csv form
// where the artifact has a CSV body.
func staticPaths(snap *Snapshot) []string {
	var paths []string
	for key, art := range snap.static {
		path := "/v1/" + key
		if id, ok := strings.CutPrefix(key, "fig"); ok {
			path = "/v1/figures/" + id
		}
		paths = append(paths, path)
		if art.csv != nil {
			paths = append(paths, path+"?format=csv")
		}
	}
	sort.Strings(paths)
	return paths
}

// TestStaticReadsSurviveSegmentLoss deletes every segment file under a
// serving store-backed server, then has concurrent clients fetch every
// static path in both encodings: each response must be a 200 carrying
// exactly the bytes and ETag served before the deletion, because static
// reads answer from memory and never touch a segment file.
func TestStaticReadsSurviveSegmentLoss(t *testing.T) {
	srv, st, dir := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := staticPaths(srv.Snapshot())
	if len(paths) < 12 {
		t.Fatalf("only %d static paths: %v", len(paths), paths)
	}
	type served struct {
		body []byte
		etag string
	}
	before := make(map[string]served, len(paths))
	for _, path := range paths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d before deletion", path, resp.StatusCode)
		}
		before[path] = served{body, resp.Header.Get("ETag")}
	}

	gens := st.Generations()
	if len(gens) == 0 {
		t.Fatal("store lists no generations")
	}
	for _, g := range gens {
		if err := os.Remove(filepath.Join(dir, g.File)); err != nil {
			t.Fatal(err)
		}
	}

	client := ts.Client()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, path := range paths {
				resp, err := client.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				want := before[path]
				switch {
				case err != nil:
					t.Errorf("%s: read body: %v", path, err)
				case resp.StatusCode != http.StatusOK:
					t.Errorf("%s: status %d after deletion", path, resp.StatusCode)
				case !bytes.Equal(body, want.body):
					t.Errorf("%s: body differs from the one served before deletion", path)
				case resp.Header.Get("ETag") != want.etag:
					t.Errorf("%s: ETag %s, want %s", path, resp.Header.Get("ETag"), want.etag)
				}
			}
		}()
	}
	wg.Wait()
}

// TestArtifactOneWriteOverTCP holds the bytes allocated per artifact
// response, over a real loopback connection, well below one copy
// buffer. http.ServeContent hands the body over as an io.LimitedReader
// around a bytes.Reader; unless statusWriter.ReadFrom writes that
// reader out whole, net/http copies it through a fresh buffer of up to
// 32 KiB per response. Client and server share this process, so the
// figure counts both (measured: 6-8 KiB, against about 40 KiB through
// the copy buffer). Under the race detector sync.Pool drops a quarter
// of what is put back, so the pooled buffers of client and server cost
// more (measured: 9-11 KiB, against about 52 KiB).
func TestArtifactOneWriteOverTCP(t *testing.T) {
	srv, _, _ := storedServer(t)
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := ts.Client()

	const requests = 200
	budget := uint64(12 << 10)
	if raceBuild() {
		budget += 8 << 10
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
		allocs := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
		metrics.Read(allocs)
		before := allocs[0].Value.Uint64()
		for range requests {
			fetch()
		}
		metrics.Read(allocs)
		perReq := (allocs[0].Value.Uint64() - before) / requests
		t.Logf("%s: %d B allocated per %d-byte response (budget %d)", path, perReq, size, budget)
		if perReq > budget {
			t.Errorf("%s: %d B allocated per response, budget %d: the body is copied through a buffer instead of written once",
				path, perReq, budget)
		}
	}
}

// TestArtifactRange checks that a single range from the middle of
// /v1/transfers, plain and under If-Range with the served ETag, returns
// exactly that slice of the in-memory body: a range does not cover the
// rest of the body, so it takes net/http's copy path, not the one-write
// one.
func TestArtifactRange(t *testing.T) {
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
