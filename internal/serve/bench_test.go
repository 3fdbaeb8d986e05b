package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// BenchmarkSnapshotBuild measures the write path: a full snapshot build
// (world generation, every analysis pipeline, encoding) at different
// build-stage worker counts, on the test world and on the
// DefaultConfig world marketd serves ("default/" rows). workers=1 is
// the serial reference; the NumCPU run is what marketd does at boot.
// Beside wall time each row reports cpu-ms/op, the process's user and
// system CPU time per build (getrusage), which the garbage collector's
// background work counts toward and which a busy host disturbs less
// than wall time. Baselines live in BENCH_build.json. The speedup is
// bounded by the hardware's core count, by the study stage, which runs
// alone before the others (12–17ms at DefaultConfig), and by the
// longest artifact stage (utilization, 14–24ms, which refills one
// survey for ten quarters), so on a single-core machine all rows
// converge.
func BenchmarkSnapshotBuild(b *testing.B) {
	logFingerprint(b, buildFingerprint())
	benchBuild(b, testConfig(), []int{1, 4, runtime.NumCPU()})
	b.Run("default", func(b *testing.B) {
		benchBuild(b, simulation.DefaultConfig(), []int{1, runtime.NumCPU()})
	})
}

// BenchmarkAsofIndex measures the as-of index's build side at
// DefaultConfig, the world marketd serves: "input" maps the world to the
// temporal event model (temporalInput), "new" builds the index from it
// (temporal.New, the build's temporal stage), "record" encodes the
// _state/temporal artifact (Index.Record, paid by every persist before a
// swap), and "restore" decodes that record and rebuilds the index
// (temporal.Restore, paid by warm starts, follower adoption and ?gen=
// loads). Run with -benchmem.
func BenchmarkAsofIndex(b *testing.B) {
	cfg := simulation.DefaultConfig()
	w, err := simulation.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := temporalInput(cfg, w)
	ix, err := temporal.New(in)
	if err != nil {
		b.Fatal(err)
	}
	rec, err := ix.Record()
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("allocations=%d transfers=%d leases=%d spans=%d events=%d epochs=%d record=%dB",
		len(in.Allocations), len(in.Transfers), len(in.Leases),
		ix.SpanCount(), ix.EventCount(), ix.EpochCount(), len(rec))
	b.Run("input", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			temporalInput(cfg, w)
		}
	})
	b.Run("new", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := temporal.New(in); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ix.Record(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("restore", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := temporal.Restore(rec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// benchFingerprint is what a baseline's numbers were measured on: the
// world config behind each group of rows (in the build suite "test" for
// the unprefixed rows and "default" for the default/ rows; the serve
// suite's rows are all "default") and the snapshot build stages, by
// name. Each suite logs its fingerprint, cmd/benchrecord copies it into
// the baseline, and TestBenchBuildJSONParses and TestBenchServeJSONParses
// fail when the suite's current fingerprint differs from the recorded
// one — a changed world or stage list means re-recording.
type benchFingerprint struct {
	Worlds map[string]simulation.Config `json:"worlds"`
	Stages []string                     `json:"stages"`
}

// buildFingerprint is BenchmarkSnapshotBuild's fingerprint.
func buildFingerprint() benchFingerprint {
	return benchFingerprint{
		Worlds: map[string]simulation.Config{"test": testConfig(), "default": simulation.DefaultConfig()},
		Stages: stageNames(),
	}
}

// serveFingerprint is BenchmarkSnapshotServe's fingerprint: its rows
// are unprefixed but served from the DefaultConfig world.
func serveFingerprint() benchFingerprint {
	return benchFingerprint{Worlds: map[string]simulation.Config{"default": simulation.DefaultConfig()}, Stages: stageNames()}
}

// stageNames lists snapshotStages by name, in build order.
func stageNames() []string {
	names := make([]string, len(snapshotStages))
	for i, st := range snapshotStages {
		names[i] = st.name
	}
	return names
}

// logFingerprint prints fp as the one "fingerprint {json}" line
// cmd/benchrecord looks for in the benchmark output (a benchmark's log
// is printed whatever -v says).
func logFingerprint(b *testing.B, fp benchFingerprint) {
	data, err := json.Marshal(fp)
	if err != nil {
		b.Fatal(err)
	}
	b.Logf("fingerprint %s", data)
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
			cpu0 := processCPU()
			for i := 0; i < b.N; i++ {
				snap, err := BuildSnapshotOpts(cfg, BuildOptions{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				if snap.Delegations.Len() == 0 {
					b.Fatal("empty delegation index")
				}
			}
			b.ReportMetric(float64(processCPU()-cpu0)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
		})
	}
}

// benchWriter is the benchmark's ResponseWriter: it discards bodies but
// — unlike httptest.ResponseRecorder — implements io.ReaderFrom with a
// pooled copy buffer, as a production *http.response does. This keeps the measured bytes/op
// about the handler's own allocations instead of recorder buffer
// growth: with the recorder, a 200 KB body showed up as ~200 KB/op of
// pure harness artifact.
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
// store-backed, like marketd with -data-dir, on the DefaultConfig world
// marketd serves.
func benchServer(b *testing.B) *Server {
	b.Helper()
	st, err := store.Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	srv, err := New(simulation.DefaultConfig(), Options{Store: st})
	if err != nil {
		b.Fatal(err)
	}
	if srv.Snapshot().Gen == 0 {
		b.Fatal("benchmark snapshot was not persisted")
	}
	return srv
}

// serveBenchRow is one BenchmarkSnapshotServe sub-benchmark. Requests
// rotate through paths, or through the paths pathsOf derives from the
// served snapshot; a revalidating row sends If-None-Match with the ETag
// its first path answers, and expects 304. Every row needs a line in
// BENCH_serve.json (TestBenchServeJSONParses).
type serveBenchRow struct {
	name       string
	paths      []string
	pathsOf    func(*Snapshot) []string
	revalidate bool
}

// serveBenchRows lists BenchmarkSnapshotServe's sub-benchmarks. The
// computed rows (prices_filtered, delegation_lookup, asof_diff) rotate
// through at least 4,096 distinct queries, 16 times what the 256-entry
// query cache holds, which evicts an arbitrary entry when full: about
// 94% of their requests miss the cache, so they time the filter, lookup
// or diff and its ETag, not a cache hit.
var serveBenchRows = []serveBenchRow{
	{name: "table1", paths: []string{"/v1/table1"}},
	{name: "prices_full", paths: []string{"/v1/prices"}},
	{name: "prices_filtered", paths: priceFilterPaths()},
	{name: "delegation_lookup", pathsOf: delegationLookupPaths},
	{name: "asof_point", paths: []string{"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16"}},
	{name: "asof_diff", paths: asofDiffWindows()},
	{name: "varz", paths: []string{"/varz"}},
	// The 304 path: client revalidation against a warm ETag.
	{name: "table1_304", paths: []string{"/v1/table1"}, revalidate: true},
}

// priceFilterPaths returns 4,176 distinct /v1/prices filters: each size
// from /8 to /31, with no region or one of the five, and no quarter or
// one from 2014Q1 to 2020Q4. At DefaultConfig, whose price cells cover
// /16 to /24 from 2016Q1 to 2020Q2, 559 of them match a cell.
func priceFilterPaths() []string {
	regions := []string{"", "AFRINIC", "APNIC", "ARIN", "LACNIC", "RIPE%20NCC"}
	quarters := []string{""}
	for y := 2014; y <= 2020; y++ {
		for q := 1; q <= 4; q++ {
			quarters = append(quarters, fmt.Sprintf("%dQ%d", y, q))
		}
	}
	var paths []string
	for bits := 8; bits < 32; bits++ {
		for _, region := range regions {
			for _, quarter := range quarters {
				path := fmt.Sprintf("/v1/prices?size=/%d", bits)
				if region != "" {
					path += "&region=" + region
				}
				if quarter != "" {
					path += "&quarter=" + quarter
				}
				paths = append(paths, path)
			}
		}
	}
	return paths
}

// delegationLookupPaths returns a /v1/delegations lookup of every
// prefix from /8 to /32 that holds the first or the last address of a
// delegated block of snap, each once: 5,752 prefixes at DefaultConfig,
// every one of which answers at least one exact, covering or covered
// delegation.
func delegationLookupPaths(snap *Snapshot) []string {
	seen := make(map[netblock.Prefix]bool)
	var paths []string
	for _, d := range snap.Delegations.ds {
		for _, a := range []netblock.Addr{d.Child.First(), d.Child.Last()} {
			for bits := 8; bits <= 32; bits++ {
				p := netblock.MustPrefix(a, bits)
				if !seen[p] {
					seen[p] = true
					paths = append(paths, "/v1/delegations?prefix="+p.String())
				}
			}
		}
	}
	return paths
}

// asofDiffWindows returns 4,096 distinct /v1/asof/diff windows of 120 to
// 183 days starting in early 2018.
func asofDiffWindows() []string {
	start := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	paths := make([]string, 0, 64*64)
	for i := 0; i < 64; i++ {
		from := start.AddDate(0, 0, i)
		for n := 120; n < 120+64; n++ {
			paths = append(paths, "/v1/asof/diff?from="+fmtDate(from)+"&to="+fmtDate(from.AddDate(0, 0, n)))
		}
	}
	return paths
}

// BenchmarkSnapshotServe measures the fast path: requests against a
// prebuilt snapshot, in parallel (RunParallel mirrors a concurrent
// client population). The snapshot builds once, outside the timer — the
// point of the architecture is that request cost is decoupled from
// study cost, and these numbers are the request cost. Bodies are
// validated once per row outside the timer, then discarded through
// benchWriter inside it. Baselines live in BENCH_serve.json.
func BenchmarkSnapshotServe(b *testing.B) {
	logFingerprint(b, serveFingerprint())
	srv := benchServer(b)
	h := srv.Handler()
	for _, row := range serveBenchRows {
		b.Run(row.name, func(b *testing.B) {
			paths := row.paths
			if row.pathsOf != nil {
				paths = row.pathsOf(srv.Snapshot())
			}
			// Correctness gate outside the timer: the route must answer
			// 200 with a non-empty body.
			probe := httptest.NewRecorder()
			h.ServeHTTP(probe, httptest.NewRequest(http.MethodGet, paths[0], nil))
			if probe.Code != http.StatusOK || probe.Body.Len() == 0 {
				b.Fatalf("%s: status %d, %d-byte body", paths[0], probe.Code, probe.Body.Len())
			}
			wantStatus := http.StatusOK
			tmpls := make([]*http.Request, len(paths))
			for i, path := range paths {
				tmpls[i] = httptest.NewRequest(http.MethodGet, path, nil)
				if row.revalidate {
					tmpls[i].Header.Set("If-None-Match", probe.Header().Get("ETag"))
					wantStatus = http.StatusNotModified
				}
			}
			var next atomic.Uint64 // shared, so goroutines never collapse onto one window
			b.ReportAllocs()
			b.RunParallel(func(pb *testing.PB) {
				w := &benchWriter{header: make(http.Header, 8)}
				for pb.Next() {
					tmpl := tmpls[0]
					if len(tmpls) > 1 {
						tmpl = tmpls[next.Add(1)%uint64(len(tmpls))]
					}
					w.reset()
					req := *tmpl
					h.ServeHTTP(w, &req)
					if w.status != wantStatus {
						b.Fatalf("%s: status %d, want %d", tmpl.URL, w.status, wantStatus)
					}
				}
			})
		})
	}
}

// TestAsofDiffAllocs is the allocation budget of one as-of diff at the
// world marketd serves (DefaultConfig), over the first half of 2018 (a
// body of about 119 KB), through the whole handler stack. Rendered per
// request — json.Marshal of the whole document, then the indenter — it
// took about 700 allocations (budget 870); concatenated from warm event
// rows it takes a handful, for the body, its ETag and the request
// plumbing, so a per-event allocation that creeps back in trips the
// budget at once. The diff must also stay out of the query cache: its
// keys almost never repeat.
func TestAsofDiffAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the production-scale world")
	}
	srv, err := New(simulation.DefaultConfig(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	cache := srv.current().cache
	tmpl := httptest.NewRequest(http.MethodGet, "/v1/asof/diff?from=2018-01-01&to=2018-06-30", nil)
	w := &benchWriter{header: make(http.Header, 8)}
	cached := cache.size()
	// AllocsPerRun's warm-up run renders the window's rows; the measured
	// runs read them warm.
	allocs := testing.AllocsPerRun(20, func() {
		w.reset()
		req := *tmpl
		h.ServeHTTP(w, &req)
		if w.status != http.StatusOK {
			t.Fatalf("status %d", w.status)
		}
	})
	if n := cache.size(); n != cached {
		t.Errorf("query cache holds %d entries after the diffs, %d before: a diff landed in the cache", n, cached)
	}
	const budget = 34
	t.Logf("asof diff, warm rows: %.0f allocs, %d-byte body (budget %d)", allocs, w.n, budget)
	if allocs > budget {
		t.Errorf("asof diff allocates %.0f times, budget %d", allocs, budget)
	}
}

// TestServeAllocRegression holds the read path to its budget: serving
// the full price artifact must stay well under the ~220 KB/op the
// buffer-copying path cost, even measured through the same discarding
// harness. A handler or wrapper that reintroduces a per-request body
// copy trips this immediately. benchWriter never reaches
// net.TCPConn.ReadFrom, so this test cannot see whether a body goes out
// in one write or through a fresh 32 KiB copy buffer;
// TestArtifactOneWriteOverTCP measures that over a real connection.
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
