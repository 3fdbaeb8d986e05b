package serve

import (
	"bytes"
	"io"
	"net/http"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"ipv4market/internal/latency"
)

// Metrics aggregates the serving counters exported on /varz. All fields
// are atomics; routes are registered up front (the map is read-only once
// serving starts), so recording is lock-free on the request path.
type Metrics struct {
	start time.Time

	panics         atomic.Int64
	cacheHits      atomic.Int64
	cacheMisses    atomic.Int64
	cacheCollapsed atomic.Int64
	rebuilds       atomic.Int64
	rebuildErrors  atomic.Int64

	// Artifact accounting: mem_reads are static artifacts (every one is
	// served from the in-memory body its served or pinned snapshot
	// holds), computed are responses rendered per query (price filters,
	// delegation lookups, as-of views).
	artifactMemReads atomic.Int64
	artifactComputed atomic.Int64

	routes map[string]*routeStats
}

// routeStats holds one route's counters. hist counts requests per slot
// of the internal/latency layout, the one the load generator records
// client-side latency into.
type routeStats struct {
	requests atomic.Int64
	byClass  [6]atomic.Int64 // status/100: 0 is "unknown"
	totalNS  atomic.Int64
	hist     [latency.Slots]atomic.Int64
}

// NewMetrics returns an empty metrics registry started now.
func NewMetrics() *Metrics {
	return &Metrics{start: time.Now(), routes: make(map[string]*routeStats)}
}

// Register adds a route label. It must be called before serving begins;
// afterwards the route map is read-only.
func (m *Metrics) Register(route string) {
	if _, ok := m.routes[route]; !ok {
		m.routes[route] = &routeStats{}
	}
}

// record accounts one finished request.
func (m *Metrics) record(route string, status int, elapsed time.Duration) {
	rs, ok := m.routes[route]
	if !ok {
		return
	}
	rs.requests.Add(1)
	class := status / 100
	if class < 0 || class >= len(rs.byClass) {
		class = 0
	}
	rs.byClass[class].Add(1)
	rs.totalNS.Add(int64(elapsed))
	rs.hist[latency.Index(elapsed)].Add(1)
}

// instrument wraps a handler to record per-route counters and latency.
func (m *Metrics) instrument(route string, h http.Handler) http.Handler {
	m.Register(route)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		begin := time.Now()
		h.ServeHTTP(sw, r)
		m.record(route, sw.status(), time.Since(begin))
	})
}

// VarzHandler serves the metrics' own counter document — uptime,
// panics, per-route requests and latency histograms. Daemons without a
// snapshot server (cmd/rdapd) mount this directly so every server in
// the repo exposes the same /varz surface; the snapshot Server renders
// a superset through its own /varz route.
func (m *Metrics) VarzHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, m.varz(time.Now()))
	})
}

// statusWriter captures the response status for accounting.
type statusWriter struct {
	http.ResponseWriter
	code  int
	wrote bool
}

func (sw *statusWriter) WriteHeader(code int) {
	if !sw.wrote {
		sw.code, sw.wrote = code, true
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.code, sw.wrote = http.StatusOK, true
	}
	return sw.ResponseWriter.Write(b)
}

// ReadFrom keeps the underlying writer's copy path reachable through
// the wrapper; without this method, io.Copy would allocate a fresh
// 32 KiB buffer per response.
//
// http.ServeContent copies a body as io.CopyN(w, content, n), so an
// artifact arrives as an *io.LimitedReader over a *bytes.Reader. When
// the limit covers the rest of the reader (every response but a Range
// slice), the body goes out through WriteTo as one Write: net/http then
// sends the header and a body of up to a few KiB in one write(2), and a
// larger body straight from the artifact's bytes, skipping the 512-byte
// content sniff and the copy-buffer loop of its own ReadFrom.
func (sw *statusWriter) ReadFrom(r io.Reader) (int64, error) {
	if lr, ok := r.(*io.LimitedReader); ok {
		if br, ok := lr.R.(*bytes.Reader); ok && int64(br.Len()) <= lr.N {
			n, err := br.WriteTo(sw)
			lr.N -= n
			return n, err
		}
	}
	if !sw.wrote {
		sw.code, sw.wrote = http.StatusOK, true
	}
	if rf, ok := sw.ResponseWriter.(io.ReaderFrom); ok {
		return rf.ReadFrom(r)
	}
	return io.Copy(struct{ io.Writer }{sw.ResponseWriter}, r)
}

func (sw *statusWriter) status() int {
	if !sw.wrote {
		return http.StatusOK
	}
	return sw.code
}

// Varz types: the JSON document served on /varz.

type varzRoute struct {
	Requests      int64            `json:"requests"`
	ByStatusClass map[string]int64 `json:"by_status_class,omitempty"`
	MeanLatencyMS float64          `json:"mean_latency_ms"`
	// LatencyCounts is the route's latency histogram: per-bucket (not
	// cumulative) counts aligned with the document's top-level
	// latency_buckets_ms bounds, plus one trailing overflow bucket —
	// latency.Slots counts, zeros included so consumers never guess at
	// alignment. cmd/marketbench recomputes server-side percentiles from
	// this export (latency.QuantileFromBuckets) to cross-check its
	// client-side measurements, recorded in the same layout.
	LatencyCounts []int64 `json:"latency_counts,omitempty"`
}

type varzSnapshot struct {
	Seq uint64 `json:"seq"`
	// Gen is the durable store generation backing the snapshot (0: no
	// store); Source is "build" or "store" (restored at warm start).
	Gen          uint64  `json:"gen,omitempty"`
	Source       string  `json:"source,omitempty"`
	Seed         int64   `json:"seed"`
	BuiltAt      string  `json:"built_at"`
	AgeSeconds   float64 `json:"age_seconds"`
	BuildSeconds float64 `json:"build_seconds"`
	BuildWorkers int     `json:"build_workers"`
	// BuildStages lists per-stage wall-clock times in pipeline order
	// ("study" first, then the artifact stages). Artifact stages run
	// concurrently, so their times overlap and do not sum to
	// build_seconds.
	BuildStages []varzStage `json:"build_stages,omitempty"`
	Delegations int         `json:"delegations"`
	Transfers   int         `json:"transfers"`
	// TemporalEvents/TemporalSpans size the as-of index behind /v1/asof:
	// the merged event stream and the holding-span table.
	TemporalEvents int `json:"temporal_events"`
	TemporalSpans  int `json:"temporal_spans"`
}

// varzStage is one build stage's timing on /varz.
type varzStage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

type varzCache struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Collapsed int64 `json:"collapsed"`
	Entries   int   `json:"entries"`
}

type varzRebuilds struct {
	Total    int64 `json:"total"`
	Errors   int64 `json:"errors"`
	InFlight bool  `json:"in_flight"`
	// LastError is the most recent background-rebuild failure, wrapped
	// with the failing build stage's name; empty after a success.
	LastError string `json:"last_error,omitempty"`
}

// varzStore is the durable store's health on /varz: segment census,
// persist outcomes, and what the last recovery found.
type varzStore struct {
	Segments      int    `json:"segments"`
	Bytes         int64  `json:"bytes"`
	NextGen       uint64 `json:"next_gen"`
	Persists      int64  `json:"persists"`
	PersistErrors int64  `json:"persist_errors"`
	// LastPersistError is the most recent failed persist, "" after a
	// success — durability failures degrade to this field, never to 5xx.
	LastPersistError string `json:"last_persist_error,omitempty"`
	// TruncatedTails counts segments quarantined at open (torn writes,
	// bit flips); RecoveredGenerations is how many intact generations
	// the open-time scan found.
	TruncatedTails       int   `json:"truncated_tails"`
	RecoveredGenerations int   `json:"recovered_generations"`
	CompactedSegments    int64 `json:"compacted_segments"`
	// ImportedSegments counts generations installed by replication
	// (store.ImportSegment) since open — nonzero only on followers.
	ImportedSegments int64 `json:"imported_segments"`
	// WarmStart reports whether this process booted from the store.
	WarmStart bool `json:"warm_start"`
}

// varzProcess is runtime-level process health, present on every /varz
// (marketd and rdapd alike).
type varzProcess struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Goroutines    int     `json:"goroutines"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	GoVersion     string  `json:"go_version"`
	// TotalAllocBytes and Mallocs are the cumulative allocation
	// counters of runtime.MemStats (TotalAlloc, Mallocs), read through
	// runtime/metrics so a scrape does not stop the world. Load
	// harnesses (cmd/marketbench) scrape them before and after a
	// measured phase to derive server-side allocation-per-request
	// figures that no client-side measurement can see.
	TotalAllocBytes uint64 `json:"total_alloc_bytes"`
	Mallocs         uint64 `json:"mallocs"`
}

// varzZeroCopy is the artifact serving census on /varz: mem_reads
// counts static artifacts, computed the responses rendered per query.
// Both are served from memory in one write.
type varzZeroCopy struct {
	MemReads int64 `json:"mem_reads"`
	Computed int64 `json:"computed"`
}

// varzView is the /varz document. The snapshot, cache, rebuild, and
// store sections are present only on servers that have them —
// cmd/rdapd shares the route/latency surface via Metrics.VarzHandler
// without growing snapshot fields it does not serve.
type varzView struct {
	UptimeSeconds float64 `json:"uptime_seconds"`
	Panics        int64   `json:"panics"`
	// LatencyBucketsMS documents the latency histogram's bucket upper
	// bounds in milliseconds (the internal/latency layout), shared by
	// every route's latency_counts; the final implicit bucket is +Inf.
	// Emitted once at the top level so the per-route arrays stay
	// compact.
	LatencyBucketsMS []float64     `json:"latency_buckets_ms"`
	Process          *varzProcess  `json:"process"`
	Snapshot         *varzSnapshot `json:"snapshot,omitempty"`
	Cache            *varzCache    `json:"cache,omitempty"`
	Rebuilds         *varzRebuilds `json:"rebuilds,omitempty"`
	Store            *varzStore    `json:"store,omitempty"`
	// Replication is the leader's or follower's replication state
	// (replicate.LeaderStatus / replicate.FollowerStatus), supplied
	// through Options.ReplicationVarz; absent on standalone servers.
	Replication any `json:"replication,omitempty"`
	// Scenarios is the per-scenario section (scenario.Registry.VarzDoc),
	// supplied through Options.ScenarioVarz; marketd always serves
	// through a registry, so it is always present there. The flat fields
	// above always describe this server's own scenario.
	Scenarios any `json:"scenarios,omitempty"`
	// ZeroCopy counts static and computed artifact responses; present on
	// snapshot servers only.
	ZeroCopy *varzZeroCopy        `json:"zero_copy,omitempty"`
	Routes   map[string]varzRoute `json:"routes"`
}

// varz renders the counter document every server shares: uptime,
// panics, and per-route request/latency stats. The Server adds its
// snapshot, cache, rebuild, and store sections on top.
func (m *Metrics) varz(now time.Time) varzView {
	// MemStats.Mallocs counts tiny allocations separately from the
	// runtime/metrics object count, so it is the sum of the two.
	mem := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/gc/heap/tiny/allocs:objects"},
	}
	metrics.Read(mem)
	v := varzView{
		UptimeSeconds:    now.Sub(m.start).Seconds(),
		Panics:           m.panics.Load(),
		LatencyBucketsMS: latency.BucketBoundsMS(),
		Process: &varzProcess{
			UptimeSeconds:   now.Sub(m.start).Seconds(),
			Goroutines:      runtime.NumGoroutine(),
			GOMAXPROCS:      runtime.GOMAXPROCS(0),
			GoVersion:       runtime.Version(),
			TotalAllocBytes: mem[0].Value.Uint64(),
			Mallocs:         mem[1].Value.Uint64() + mem[2].Value.Uint64(),
		},
		Routes: make(map[string]varzRoute, len(m.routes)),
	}
	for route, rs := range m.routes {
		n := rs.requests.Load()
		vr := varzRoute{Requests: n}
		if n > 0 {
			vr.ByStatusClass = make(map[string]int64)
			for c := range rs.byClass {
				if cnt := rs.byClass[c].Load(); cnt > 0 {
					vr.ByStatusClass[statusClassLabel(c)] = cnt
				}
			}
			vr.MeanLatencyMS = float64(rs.totalNS.Load()) / float64(n) / 1e6
			vr.LatencyCounts = make([]int64, len(rs.hist))
			for i := range rs.hist {
				vr.LatencyCounts[i] = rs.hist[i].Load()
			}
		}
		v.Routes[route] = vr
	}
	return v
}

func statusClassLabel(class int) string {
	switch class {
	case 1, 2, 3, 4, 5:
		return string(rune('0'+class)) + "xx"
	default:
		return "unknown"
	}
}
