package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipv4market/internal/latency"
	"ipv4market/internal/simulation"
)

// testConfig is a deliberately small world: every endpoint has data, but
// a snapshot builds in well under a second.
func testConfig() simulation.Config {
	cfg := simulation.DefaultConfig()
	cfg.NumLIRs = 14
	cfg.RoutingDays = 40
	cfg.AdministrativeLeases = 120
	cfg.RoutedLeases = 50
	cfg.MonitorsPerCollector = 4
	cfg.SmallAssignmentsPerLIR = 10
	return cfg
}

var (
	sharedOnce sync.Once
	sharedSrv  *Server
	sharedErr  error
)

// sharedServer returns one admin-enabled server reused by all read-only
// tests; tests that mutate serving state build their own.
func sharedServer(t testing.TB) *Server {
	t.Helper()
	sharedOnce.Do(func() {
		sharedSrv, sharedErr = New(testConfig(), Options{EnableAdmin: true})
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedSrv
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

// TestEndpoints drives every served route over real HTTP and checks
// status, content type, and that JSON bodies decode.
func TestEndpoints(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()

	jsonPaths := []string{
		"/readyz", "/varz",
		"/v1/table1",
		"/v1/figures/1", "/v1/figures/2", "/v1/figures/3", "/v1/figures/4",
		"/v1/prices",
		"/v1/prices?size=/16",
		"/v1/prices?region=RIPE%20NCC",
		"/v1/prices?quarter=2019Q2",
		"/v1/prices?size=16&region=ARIN&quarter=2019Q4",
		"/v1/transfers",
		"/v1/delegations",
		"/v1/delegations?prefix=185.0.0.0/16",
		"/v1/leasing",
		"/v1/headline",
		"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
		"/v1/asof/timeline?prefix=185.0.0.0/16",
		"/v1/asof/diff?from=2013-01-01&to=2013-12-31",
	}
	for _, path := range jsonPaths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, body %s", path, resp.StatusCode, body)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s: content type %q", path, ct)
		}
		var doc any
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Errorf("%s: invalid JSON: %v", path, err)
		}
	}

	csvPaths := []string{
		"/v1/table1?format=csv",
		"/v1/figures/1?format=csv",
		"/v1/figures/2?format=csv",
		"/v1/figures/3?format=csv",
		"/v1/figures/4?format=csv",
		"/v1/prices?format=csv",
		"/v1/prices?size=/16&format=csv",
	}
	for _, path := range csvPaths {
		resp, body := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d", path, resp.StatusCode)
			continue
		}
		if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/csv") {
			t.Errorf("%s: content type %q", path, ct)
		}
		if !strings.Contains(string(body), ",") {
			t.Errorf("%s: body does not look like CSV", path)
		}
	}

	resp, body := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || strings.TrimSpace(string(body)) != "ok" {
		t.Errorf("/healthz: status %d body %q", resp.StatusCode, body)
	}
}

// TestETagNotModified verifies the conditional-request flow: a second GET
// with If-None-Match set to the returned ETag answers 304 with no body.
func TestETagNotModified(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()

	for _, path := range []string{"/v1/table1", "/v1/prices?size=/16", "/v1/table1?format=csv"} {
		resp, _ := get(t, ts, path)
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatalf("%s: no ETag", path)
		}
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("If-None-Match", etag)
		resp2, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp2.Body)
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotModified {
			t.Errorf("%s with If-None-Match: status %d, want 304", path, resp2.StatusCode)
		}
		if len(body) != 0 {
			t.Errorf("%s: 304 carried a %d-byte body", path, len(body))
		}
	}
}

// TestBadRequests checks the 4xx surface: malformed prefixes, filters,
// figure IDs, and unsupported methods.
func TestBadRequests(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()

	for path, want := range map[string]int{
		"/v1/delegations?prefix=banana":      http.StatusBadRequest,
		"/v1/delegations?prefix=10.0.0.0/33": http.StatusBadRequest,
		"/v1/prices?size=huge":               http.StatusBadRequest,
		"/v1/prices?region=MARS":             http.StatusBadRequest,
		"/v1/prices?quarter=then":            http.StatusBadRequest,
		"/v1/figures/9":                      http.StatusNotFound,
		"/v1/figures/banana":                 http.StatusNotFound,
		"/v1/transfers?format=csv":           http.StatusBadRequest, // no CSV encoding
	} {
		resp, body := get(t, ts, path)
		if resp.StatusCode != want {
			t.Errorf("%s: status %d, want %d (body %s)", path, resp.StatusCode, want, body)
			continue
		}
		var doc errorBody
		if err := json.Unmarshal(body, &doc); err != nil || doc.Error == "" {
			t.Errorf("%s: error body %q not the JSON error document", path, body)
		}
	}

	if resp, _ := get(t, ts, "/v1/nosuch"); resp.StatusCode != http.StatusNotFound {
		t.Errorf("/v1/nosuch: status %d, want 404", resp.StatusCode)
	}
	resp, err := ts.Client().Post(ts.URL+"/v1/table1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /v1/table1: status %d, want 405", resp.StatusCode)
	}
}

// TestFilteredPricesSubset checks that filters actually filter, and that
// the filtered response is consistent with the unfiltered cell set.
func TestFilteredPricesSubset(t *testing.T) {
	ts := httptest.NewServer(sharedServer(t).Handler())
	defer ts.Close()

	var all, filtered priceCellsView
	_, body := get(t, ts, "/v1/prices")
	if err := json.Unmarshal(body, &all); err != nil {
		t.Fatal(err)
	}
	_, body = get(t, ts, "/v1/prices?size=/16")
	if err := json.Unmarshal(body, &filtered); err != nil {
		t.Fatal(err)
	}
	if filtered.N == 0 {
		t.Fatal("size=/16 filter matched nothing; test world too small?")
	}
	if filtered.N >= all.N {
		t.Errorf("filtered N=%d not a strict subset of all N=%d", filtered.N, all.N)
	}
	for _, c := range filtered.Cells {
		if c.Bits != 16 {
			t.Errorf("size=/16 returned a /%d cell", c.Bits)
		}
	}
}

// TestQueryCacheServes verifies that repeated filtered queries are served
// from the per-snapshot cache: the /varz hit counter advances and the
// miss counter does not.
func TestQueryCacheServes(t *testing.T) {
	srv, err := New(testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const path = "/v1/prices?size=/18&region=APNIC"
	get(t, ts, path) // miss: renders and caches
	missesAfterFirst := srv.metrics.cacheMisses.Load()
	hitsBefore := srv.metrics.cacheHits.Load()
	for i := 0; i < 5; i++ {
		resp, _ := get(t, ts, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("repeat %d: status %d", i, resp.StatusCode)
		}
	}
	if got := srv.metrics.cacheMisses.Load(); got != missesAfterFirst {
		t.Errorf("repeated query recomputed: misses %d -> %d", missesAfterFirst, got)
	}
	if got := srv.metrics.cacheHits.Load(); got < hitsBefore+5 {
		t.Errorf("cache hits %d, want >= %d", got, hitsBefore+5)
	}
}

// TestRebuildWhileQuerying hammers the read path while background
// rebuilds swap snapshots underneath it. Run under -race (scripts/
// check.sh does), this is the no-torn-reads proof: every response must
// be complete and internally consistent, never a mix of generations.
func TestRebuildWhileQuerying(t *testing.T) {
	srv, err := New(testConfig(), Options{EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	paths := []string{
		"/v1/table1", "/v1/prices?size=/16", "/v1/delegations?prefix=185.0.0.0/16",
		"/v1/transfers", "/varz",
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) { // coordinated: wg.Done + stop channel
			defer wg.Done()
			for n := 0; ; n++ {
				select {
				case <-stop:
					return
				default:
				}
				path := paths[(i+n)%len(paths)]
				resp, err := ts.Client().Get(ts.URL + path)
				if err != nil {
					t.Errorf("reader %d: %v", i, err)
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("reader %d: %s status %d err %v", i, path, resp.StatusCode, err)
					return
				}
				var doc any
				if err := json.Unmarshal(body, &doc); err != nil {
					t.Errorf("reader %d: %s: torn body: %v", i, path, err)
					return
				}
			}
		}(i)
	}

	// Drive rebuilds with changing seeds while the readers run.
	startSeq := srv.Snapshot().Seq
	rebuilds := 0
	for seed := int64(100); rebuilds < 2 && seed < 150; seed++ {
		resp, err := ts.Client().Post(fmt.Sprintf("%s/admin/rebuild?seed=%d", ts.URL, seed), "", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusAccepted:
			rebuilds++
			for srv.Rebuilding() {
				time.Sleep(5 * time.Millisecond)
			}
		case http.StatusConflict:
			time.Sleep(5 * time.Millisecond)
		default:
			t.Fatalf("rebuild: status %d", resp.StatusCode)
		}
	}
	close(stop)
	wg.Wait()
	srv.Wait()

	if got := srv.Snapshot().Seq; got != startSeq+uint64(rebuilds) {
		t.Errorf("snapshot seq = %d, want %d after %d rebuilds", got, startSeq+uint64(rebuilds), rebuilds)
	}
	if srv.Snapshot().Cfg.Seed == testConfig().Seed {
		t.Error("rebuild did not adopt the new seed")
	}
}

// TestRebuildConflict checks that concurrent rebuild triggers cannot
// stack: while one build is in flight, further triggers answer 409.
func TestRebuildConflict(t *testing.T) {
	srv, err := New(testConfig(), Options{EnableAdmin: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	startSeq := srv.Snapshot().Seq
	if !srv.RebuildAsync(cfg) {
		t.Fatal("first RebuildAsync declined")
	}
	// A build takes orders of magnitude longer than these calls; every
	// immediate re-trigger must be declined by the in-flight guard.
	for i := 0; i < 16; i++ {
		if srv.RebuildAsync(cfg) {
			t.Fatalf("re-trigger %d stacked a second build", i)
		}
	}
	srv.Wait()
	if got := srv.Snapshot().Seq; got != startSeq+1 {
		t.Errorf("snapshot seq = %d, want %d (exactly one rebuild)", got, startSeq+1)
	}
}

// TestRebuildWorkers pins the build concurrency: with no explicit
// worker count the boot build uses every core and a background rebuild
// leaves one free for serving; an explicit count applies to both.
func TestRebuildWorkers(t *testing.T) {
	for _, c := range []struct{ opt, boot, rebuild int }{
		{0, runtime.NumCPU(), max(1, runtime.NumCPU()-1)},
		{3, 3, 3},
	} {
		srv, err := New(testConfig(), Options{BuildWorkers: c.opt})
		if err != nil {
			t.Fatal(err)
		}
		if got := srv.Snapshot().Workers; got != c.boot {
			t.Errorf("BuildWorkers=%d: boot build used %d workers, want %d", c.opt, got, c.boot)
		}
		if !srv.RebuildAsync(testConfig()) {
			t.Fatal("RebuildAsync declined")
		}
		srv.Wait()
		if got := srv.Snapshot().Workers; got != c.rebuild {
			t.Errorf("BuildWorkers=%d: rebuild used %d workers, want %d", c.opt, got, c.rebuild)
		}
	}
}

// TestSnapshotDeterminism pins the serving layer to the study contract:
// two snapshots of the same config serve byte-identical artifacts.
func TestSnapshotDeterminism(t *testing.T) {
	a, err := BuildSnapshotOpts(testConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildSnapshotOpts(testConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for key, art := range a.static {
		other, ok := b.staticArtifact(key)
		if !ok {
			t.Errorf("second snapshot lacks artifact %q", key)
			continue
		}
		if art.jsonETag != other.jsonETag {
			t.Errorf("artifact %q: JSON differs across identical builds", key)
		}
		if art.csvETag != other.csvETag {
			t.Errorf("artifact %q: CSV differs across identical builds", key)
		}
	}
}

// TestPanicRecovery confirms the recovery middleware turns a handler
// panic into a 500 JSON error and counts it, without killing the server.
func TestPanicRecovery(t *testing.T) {
	m := NewMetrics()
	h := Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("boom") //lint:ignore bannedcall test fixture exercising the recovery middleware
	}), m, "/panic", time.Second)
	ts := httptest.NewServer(h)
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/panic")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", resp.StatusCode)
	}
	if !strings.Contains(string(body), "boom") {
		t.Errorf("body %q does not mention the panic", body)
	}
	if m.panics.Load() != 1 {
		t.Errorf("panic counter = %d, want 1", m.panics.Load())
	}
	// The server must still answer after the panic.
	resp2, err := ts.Client().Get(ts.URL + "/panic")
	if err != nil {
		t.Fatalf("server dead after panic: %v", err)
	}
	resp2.Body.Close()
}

// TestVarzShape decodes /varz and spot-checks the counter document.
func TestVarzShape(t *testing.T) {
	srv, err := New(testConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get(t, ts, "/v1/table1")
	get(t, ts, "/v1/table1")
	_, body := get(t, ts, "/varz")
	var v varzView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Snapshot.Seq != 1 || v.Snapshot.Seed != testConfig().Seed {
		t.Errorf("snapshot identity = %+v", v.Snapshot)
	}
	if v.Snapshot.BuildSeconds <= 0 {
		t.Error("build_seconds not recorded")
	}
	if ix := srv.Snapshot().Temporal; v.Snapshot.TemporalBytes != ix.SizeBytes() || v.Snapshot.TemporalBytes <= 0 {
		t.Errorf("temporal_bytes = %d, want the as-of index's %d", v.Snapshot.TemporalBytes, ix.SizeBytes())
	}
	rt, ok := v.Routes["GET /v1/table1"]
	if !ok {
		t.Fatalf("routes lack GET /v1/table1: %v", v.Routes)
	}
	if rt.Requests != 2 || rt.ByStatusClass["2xx"] != 2 {
		t.Errorf("table1 route stats = %+v", rt)
	}
	if v.Process == nil {
		t.Fatal("varz lacks a process section")
	}
	if v.Process.UptimeSeconds < 0 || v.Process.Goroutines < 1 ||
		v.Process.GOMAXPROCS < 1 || !strings.HasPrefix(v.Process.GoVersion, "go") {
		t.Errorf("process section = %+v", v.Process)
	}
	// A standalone server has no replication section.
	if v.Replication != nil {
		t.Errorf("standalone varz has a replication section: %v", v.Replication)
	}
	// The histogram export: the shared internal/latency bounds at the
	// top level, per-route counts aligned with them (plus overflow).
	if !slices.Equal(v.LatencyBucketsMS, latency.BucketBoundsMS()) {
		t.Fatalf("latency_buckets_ms = %v, want the shared layout %v", v.LatencyBucketsMS, latency.BucketBoundsMS())
	}
	if len(rt.LatencyCounts) != latency.Slots {
		t.Fatalf("latency_counts has %d entries, want %d", len(rt.LatencyCounts), latency.Slots)
	}
	var sum int64
	for _, c := range rt.LatencyCounts {
		sum += c
	}
	if sum != rt.Requests {
		t.Errorf("latency_counts sum to %d, want the route's %d requests", sum, rt.Requests)
	}
}

// TestRouteLatencyResolvesSubMillisecond records a mix dominated by
// 130µs requests — about what a cached artifact costs the server —
// through the route recorder and requires the p50 recomputed from the
// /varz counts to land within 20% of the true median. A layout whose
// first bound is 0.5ms interpolates it to 0.25ms.
func TestRouteLatencyResolvesSubMillisecond(t *testing.T) {
	const route = "GET /v1/table1"
	m := NewMetrics()
	m.Register(route)
	for i := 0; i < 1000; i++ {
		d := 125*time.Microsecond + time.Duration(i%11)*time.Microsecond // 125–135µs
		switch {
		case i%5 == 0:
			d = 60 * time.Microsecond
		case i%5 == 1:
			d = 3 * time.Millisecond
		}
		m.record(route, http.StatusOK, d)
	}
	rt := m.varz(time.Now()).Routes[route]
	p50, err := latency.QuantileFromBuckets(rt.LatencyCounts, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if truth := 0.130; p50 < truth*0.8 || p50 > truth*1.2 {
		t.Errorf("p50 from /varz counts = %.4fms, want within 20%% of %.3fms", p50, truth)
	}
}

// TestVarzAllocCountersMatchMemStats pins the process allocation
// counters to runtime.MemStats without stopping the world to read them:
// a ReadMemStats taken between two /varz renders lies between them.
func TestVarzAllocCountersMatchMemStats(t *testing.T) {
	m := NewMetrics()
	before := m.varz(time.Now()).Process
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	after := m.varz(time.Now()).Process
	if before.TotalAllocBytes > mem.TotalAlloc || mem.TotalAlloc > after.TotalAllocBytes {
		t.Errorf("total_alloc_bytes %d .. %d does not bracket MemStats.TotalAlloc %d",
			before.TotalAllocBytes, after.TotalAllocBytes, mem.TotalAlloc)
	}
	if before.Mallocs > mem.Mallocs || mem.Mallocs > after.Mallocs {
		t.Errorf("mallocs %d .. %d does not bracket MemStats.Mallocs %d", before.Mallocs, after.Mallocs, mem.Mallocs)
	}
}

// TestReadyCheckGatesReadyz pins the ReadyCheck hook contract: a failing
// check turns /readyz into a 503 with the error as the reason (so a
// router drains the node), a passing or absent check answers 200, and
// the snapshot identity fields are present either way.
func TestReadyCheckGatesReadyz(t *testing.T) {
	var unready atomic.Bool
	srv, err := New(testConfig(), Options{ReadyCheck: func() error {
		if unready.Load() {
			return fmt.Errorf("replication lag 7 generations exceeds max 2")
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	readyResp, body := get(t, ts, "/readyz")
	if readyResp.StatusCode != http.StatusOK {
		t.Fatalf("passing check: /readyz = %d, want 200", readyResp.StatusCode)
	}
	var doc map[string]any
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "ready" {
		t.Errorf("status = %v, want ready", doc["status"])
	}

	unready.Store(true)
	resp, err := ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("failing check: /readyz = %d, want 503", resp.StatusCode)
	}
	doc = nil
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc["status"] != "unready" {
		t.Errorf("status = %v, want unready", doc["status"])
	}
	if reason, _ := doc["reason"].(string); !strings.Contains(reason, "replication lag") {
		t.Errorf("reason = %v, want the check's error", doc["reason"])
	}
	if _, ok := doc["seq"]; !ok {
		t.Error("unready body lacks the snapshot identity fields")
	}
}

// TestServeClosesUnusedConnsOnShutdown: a connection a client dialed but
// never sent a request on must not hold shutdown to the drain deadline.
// net/http counts such a connection as active for 5 s, which is the
// drain used here (and marketd's default -drain), so without Serve
// closing it shutdown fails with a deadline error. A slow request in
// flight when shutdown starts must still complete.
func TestServeClosesUnusedConnsOnShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	started, release := make(chan struct{}), make(chan struct{})
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		close(started)
		<-release
		io.WriteString(w, "ok")
	})}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, srv, ln, 5*time.Second) }()

	idle, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer idle.Close()

	client := &http.Client{Transport: &http.Transport{}}
	defer client.CloseIdleConnections()
	status := make(chan int, 1)
	go func() {
		resp, err := client.Get("http://" + ln.Addr().String() + "/slow")
		if err != nil {
			t.Errorf("slow request: %v", err)
			status <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		status <- resp.StatusCode
	}()
	<-started
	cancel()
	time.Sleep(200 * time.Millisecond) // shutdown is under way with the request in flight
	close(release)
	finished := time.Now()
	if code := <-status; code != http.StatusOK {
		t.Fatalf("slow request answered %d during shutdown, want 200", code)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve: %v", err)
		}
		if d := time.Since(finished); d > time.Second {
			t.Errorf("Serve returned %v after the last request finished, want under 1s", d)
		}
	case <-time.After(6 * time.Second):
		t.Fatal("Serve did not return within the drain")
	}
}
