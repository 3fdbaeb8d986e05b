package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestRestartETagContinuity is the e2e restart test: build → persist →
// "restart" (a new server over the same data directory) and prove that
// a client's cached ETag from before the restart still answers 304
// Not Modified afterwards, byte-identical body included.
func TestRestartETagContinuity(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()

	// Phase 1: cold build, persist, capture what a client would cache.
	first, err := New(cfg, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(first.Handler())
	cached := make(map[string]struct {
		etag string
		body []byte
	})
	paths := []string{
		"/v1/table1", "/v1/prices", "/v1/delegations", "/v1/headline",
		"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
		"/v1/asof/timeline?prefix=185.0.0.0/16",
	}
	for _, path := range paths {
		resp, body := get(t, ts1, path)
		if resp.StatusCode != 200 || resp.Header.Get("ETag") == "" {
			t.Fatalf("%s: status=%d etag=%q before restart", path, resp.StatusCode, resp.Header.Get("ETag"))
		}
		cached[path] = struct {
			etag string
			body []byte
		}{resp.Header.Get("ETag"), body}
	}
	ts1.Close() // the "crash": the process goes away, the data dir stays

	// Phase 2: a new process warm-starts over the same directory.
	second, err := New(cfg, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !second.WarmStarted() {
		t.Fatal("restarted server did not warm-start")
	}
	ts2 := httptest.NewServer(second.Handler())
	defer ts2.Close()

	for _, path := range paths {
		want := cached[path]
		resp, body := get(t, ts2, path)
		if !bytes.Equal(body, want.body) {
			t.Errorf("%s: body changed across restart", path)
		}
		if got := resp.Header.Get("ETag"); got != want.etag {
			t.Errorf("%s: ETag %q after restart, want %q", path, got, want.etag)
		}

		// The conditional request a cache would send: the pre-restart
		// ETag must still short-circuit to 304.
		req, err := http.NewRequest(http.MethodGet, ts2.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", want.etag)
		cresp, err := ts2.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		cresp.Body.Close()
		if cresp.StatusCode != http.StatusNotModified {
			t.Errorf("%s: conditional GET with pre-restart ETag: %d, want 304", path, cresp.StatusCode)
		}
	}
}

// TestHistoryEndpoint checks /v1/history: 404 without a store,
// otherwise one entry per persisted generation with build metadata.
func TestHistoryEndpoint(t *testing.T) {
	t.Run("no_store", func(t *testing.T) {
		ts := httptest.NewServer(sharedServer(t).Handler())
		defer ts.Close()
		resp, _ := get(t, ts, "/v1/history")
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("history without store: %d, want 404", resp.StatusCode)
		}
	})

	t.Run("with_store", func(t *testing.T) {
		cfg := testConfig()
		srv, err := New(cfg, Options{Store: openStore(t, t.TempDir()), EnableAdmin: true})
		if err != nil {
			t.Fatal(err)
		}
		// A second generation via admin rebuild with a fresh seed.
		if !srv.RebuildAsync(srv.rebuildConfig(cfg.Seed+1, true)) {
			t.Fatal("rebuild not started")
		}
		srv.Wait()

		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, body := get(t, ts, "/v1/history")
		if resp.StatusCode != 200 {
			t.Fatalf("history: %d, want 200", resp.StatusCode)
		}
		var view historyView
		if err := json.Unmarshal(body, &view); err != nil {
			t.Fatalf("history document: %v", err)
		}
		if len(view.Generations) != 2 {
			t.Fatalf("history lists %d generations, want 2", len(view.Generations))
		}
		if view.ServingGen != 2 || view.ServingSource != string(SourceBuild) {
			t.Fatalf("serving_gen=%d source=%q, want 2/%q", view.ServingGen, view.ServingSource, SourceBuild)
		}
		for i, g := range view.Generations {
			if g.Gen != uint64(i+1) {
				t.Errorf("generation[%d].gen = %d, want %d", i, g.Gen, i+1)
			}
			if g.BuiltAt == "" || g.Bytes <= 0 || len(g.Stages) == 0 {
				t.Errorf("generation %d: missing build metadata (built_at=%q bytes=%d stages=%d)",
					g.Gen, g.BuiltAt, g.Bytes, len(g.Stages))
			}
		}
		if view.Generations[0].Seed == view.Generations[1].Seed {
			t.Error("reseeded rebuild recorded the same seed")
		}
	})
}

// TestPinnedGenerationReads drives ?gen= on the artifact endpoints:
// a pinned read serves the stored bytes and ETag of that generation
// even after a rebuild changed what is current.
func TestPinnedGenerationReads(t *testing.T) {
	cfg := testConfig()
	srv, err := New(cfg, Options{Store: openStore(t, t.TempDir()), EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, gen1Body := get(t, ts, "/v1/prices")
	resp1, _ := get(t, ts, "/v1/prices?gen=1")
	etag1 := resp1.Header.Get("ETag")

	if !srv.RebuildAsync(srv.rebuildConfig(cfg.Seed+99, true)) {
		t.Fatal("rebuild not started")
	}
	srv.Wait()

	// Current moved on; the pin still answers with generation 1's bytes.
	resp, curBody := get(t, ts, "/v1/prices")
	if resp.StatusCode != 200 {
		t.Fatalf("current prices after rebuild: %d", resp.StatusCode)
	}
	if bytes.Equal(curBody, gen1Body) {
		t.Fatal("reseeded rebuild produced identical price bytes; test cannot distinguish generations")
	}
	respPin, pinBody := get(t, ts, "/v1/prices?gen=1")
	if respPin.StatusCode != 200 {
		t.Fatalf("pinned read: %d, want 200", respPin.StatusCode)
	}
	if !bytes.Equal(pinBody, gen1Body) {
		t.Error("?gen=1 body differs from generation 1's original bytes")
	}
	if got := respPin.Header.Get("ETag"); got != etag1 {
		t.Errorf("?gen=1 ETag %q, want %q", got, etag1)
	}

	// Pinning the current generation hits the snapshot fast path.
	resp2, pin2 := get(t, ts, "/v1/prices?gen=2")
	if resp2.StatusCode != 200 || !bytes.Equal(pin2, curBody) {
		t.Errorf("?gen=2: status=%d, body matches current=%v", resp2.StatusCode, bytes.Equal(pin2, curBody))
	}

	for _, tc := range []struct {
		path string
		want int
	}{
		{"/v1/table1?gen=99", http.StatusNotFound},                        // never persisted
		{"/v1/table1?gen=0", http.StatusBadRequest},                       // not a generation
		{"/v1/table1?gen=abc", http.StatusBadRequest},                     // not a number
		{"/v1/prices?gen=1&size=/16", http.StatusBadRequest},              // filter + pin
		{"/v1/delegations?gen=1&prefix=8.0.0.0/8", http.StatusBadRequest}, // filter + pin
		{"/v1/prices?gen=1", http.StatusOK},                               // unfiltered pin is fine
		{"/v1/figures/2?gen=1", http.StatusOK},
	} {
		resp, _ := get(t, ts, tc.path)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: %d, want %d", tc.path, resp.StatusCode, tc.want)
		}
	}
}

// TestPinnedReadWithoutStore: ?gen= on a storeless server is 404, not a
// crash or a silent fallthrough to current.
func TestPinnedReadWithoutStore(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()
	resp, _ := get(t, ts, "/v1/table1?gen=1")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("?gen= without store: %d, want 404", resp.StatusCode)
	}
}
