package serve

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

// BenchmarkSnapshotBuild measures the write path: a full snapshot build
// (world generation, every analysis pipeline, encoding) at different
// build-stage worker counts, on the test world and on the
// DefaultConfig world marketd serves ("default/" rows). workers=1 is
// the serial reference; the NumCPU run is what marketd does at boot.
// Baselines live in BENCH_build.json. The speedup is bounded by the
// hardware's core count and by the longest single stage (utilization
// and delegations each run routing surveys; the study stage itself
// takes about 10ms), so on a single-core machine all rows converge.
func BenchmarkSnapshotBuild(b *testing.B) {
	benchBuild(b, testConfig(), []int{1, 4, runtime.NumCPU()})
	b.Run("default", func(b *testing.B) {
		benchBuild(b, simulation.DefaultConfig(), []int{1, runtime.NumCPU()})
	})
}

// benchBuild runs one workers=N sub-benchmark per distinct count.
func benchBuild(b *testing.B, cfg simulation.Config, counts []int) {
	seen := make(map[int]bool)
	for _, w := range counts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				snap, err := BuildSnapshotOpts(cfg, BuildOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if snap.Delegations.Len() == 0 {
					b.Fatal("empty delegation index")
				}
			}
		})
	}
}

// benchWriter is the benchmark's ResponseWriter: it discards bodies but
// — unlike httptest.ResponseRecorder — implements io.ReaderFrom with a
// pooled copy buffer, the same fast path a production *http.response
// offers. This keeps the measured bytes/op about the handler's own
// allocations instead of recorder buffer growth: with the recorder, a
// 200 KB body showed up as ~200 KB/op of pure harness artifact.
type benchWriter struct {
	header http.Header
	status int
	n      int64
}

var benchCopyBuf = sync.Pool{New: func() any {
	b := make([]byte, 32*1024)
	return &b
}}

func (w *benchWriter) Header() http.Header  { return w.header }
func (w *benchWriter) WriteHeader(code int) { w.status = code }

func (w *benchWriter) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	w.n += int64(len(p))
	return len(p), nil
}

// ReadFrom drains r through a pooled buffer. The onlyWriter wrapper
// hides ReadFrom from io.CopyBuffer so the copy cannot recurse.
func (w *benchWriter) ReadFrom(r io.Reader) (int64, error) {
	bp := benchCopyBuf.Get().(*[]byte)
	defer benchCopyBuf.Put(bp)
	return io.CopyBuffer(onlyWriter{w}, r, *bp)
}

type onlyWriter struct{ io.Writer }

func (w *benchWriter) reset() {
	clear(w.header)
	w.status = 0
	w.n = 0
}

// benchServer builds the server the serve benchmarks run against:
// store-backed (like marketd with -data-dir), so the static artifact
// rows measure the zero-copy segment-file path production takes.
func benchServer(b *testing.B) *Server {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(testConfig(), Options{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	if srv.Snapshot().Gen == 0 {
		b.Fatal("benchmark snapshot was not persisted")
	}
	return srv
}

// BenchmarkSnapshotServe measures the fast path: requests against a
// prebuilt snapshot, in parallel (RunParallel mirrors a concurrent
// client population). The snapshot builds once, outside the timer — the
// point of the architecture is that request cost is decoupled from
// study cost, and these numbers are the request cost. Bodies are
// validated once per row outside the timer, then discarded through
// benchWriter inside it. Baselines live in BENCH_serve.json.
func BenchmarkSnapshotServe(b *testing.B) {
	srv := benchServer(b)
	h := srv.Handler()

	bench := func(path string, header http.Header, wantStatus int) func(*testing.B) {
		return func(b *testing.B) {
			// Correctness gate outside the timer: the route must answer
			// with the expected status and a non-empty body on 200.
			probe := httptest.NewRecorder()
			probeReq := httptest.NewRequest(http.MethodGet, path, nil)
			for k, vs := range header {
				probeReq.Header[k] = vs
			}
			h.ServeHTTP(probe, probeReq)
			if probe.Code != wantStatus {
				b.Fatalf("%s: status %d, want %d", path, probe.Code, wantStatus)
			}
			if wantStatus == http.StatusOK && probe.Body.Len() == 0 {
				b.Fatalf("%s: empty body", path)
			}

			tmpl := httptest.NewRequest(http.MethodGet, path, nil)
			for k, vs := range header {
				tmpl.Header[k] = vs
			}
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				w := &benchWriter{header: make(http.Header, 8)}
				for pb.Next() {
					w.reset()
					req := *tmpl
					h.ServeHTTP(w, &req)
					if w.status != wantStatus {
						b.Fatalf("%s: status %d, want %d", path, w.status, wantStatus)
					}
				}
			})
		}
	}

	b.Run("table1", bench("/v1/table1", nil, http.StatusOK))
	b.Run("prices_full", bench("/v1/prices", nil, http.StatusOK))
	b.Run("prices_filtered", bench("/v1/prices?size=/16&region=ARIN", nil, http.StatusOK))
	b.Run("delegation_lookup", bench("/v1/delegations?prefix=185.0.0.0/16", nil, http.StatusOK))
	b.Run("asof_point", bench("/v1/asof?date=2019-06-01&prefix=185.0.0.0/16", nil, http.StatusOK))
	b.Run("varz", bench("/varz", nil, http.StatusOK))

	// The 304 path: client revalidation against a warm ETag.
	art, ok := srv.Snapshot().staticArtifact("table1")
	if !ok {
		b.Fatal("no table1 artifact")
	}
	b.Run("table1_304", bench("/v1/table1", http.Header{"If-None-Match": {art.jsonETag}}, http.StatusNotModified))
}

// TestServeAllocRegression holds the zero-copy read path to its
// budget: serving the full price artifact must stay well under the
// ~220 KB/op the buffer-copying path cost, even measured through the
// same discarding harness. A regression that reintroduces a per-request
// body copy trips this immediately.
func TestServeAllocRegression(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping benchmark-backed regression check in -short mode")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(testConfig(), Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	for _, row := range []struct {
		name, path string
		maxBytes   int64
	}{
		// The artifact bodies here are ~40-200 KB; the budgets leave room
		// for harness noise while sitting an order of magnitude below a
		// full body copy.
		{"prices_full", "/v1/prices", 16 << 10},
		{"prices_filtered", "/v1/prices?size=/16&region=ARIN", 16 << 10},
		{"table1", "/v1/table1", 16 << 10},
	} {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			tmpl := httptest.NewRequest(http.MethodGet, row.path, nil)
			w := &benchWriter{header: make(http.Header, 8)}
			for i := 0; i < b.N; i++ {
				w.reset()
				req := *tmpl
				h.ServeHTTP(w, &req)
				if w.status != http.StatusOK {
					b.Fatalf("%s: status %d", row.path, w.status)
				}
			}
		})
		if got := res.AllocedBytesPerOp(); got > row.maxBytes {
			t.Errorf("%s: %d bytes/op, budget %d — a per-request body copy crept back in",
				row.name, got, row.maxBytes)
		}
	}
}
