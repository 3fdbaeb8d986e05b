package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ipv4market/internal/core"
	"ipv4market/internal/delegation"
	"ipv4market/internal/loadgen"
	"ipv4market/internal/netblock"
	"ipv4market/internal/scenario"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

const (
	// sweepRequests is how many requests of each request family the
	// in-process handler sweep replays.
	sweepRequests = 3000
	// probeRequests is the size of the overhead probe.
	probeRequests = 4000
	// microCalls is how many calls time one small layer function.
	microCalls = 2000
	// surveyDays is how many distinct days time SurveyAt.
	surveyDays = 3
)

// varzDoc is the part of a world's /varz this benchmark reads.
type varzDoc struct {
	loadgen.ServerVarz
	Cache struct {
		Hits   int64 `json:"hits"`
		Misses int64 `json:"misses"`
	} `json:"cache"`
}

// scrapeVarz reads every world's /varz. It is only called around a
// traced run's measured phase: each scrape stops marketd's world to
// read its memory statistics.
func (s *session) scrapeVarz(ctx context.Context) ([]*varzDoc, error) {
	var out []*varzDoc
	for _, w := range s.worlds {
		path := "/varz"
		if w.prefix != "" {
			path = "/v1" + w.prefix + "/varz"
		}
		_, body, err := s.client.fetch(ctx, http.MethodGet, path, http.StatusOK)
		if err != nil {
			return nil, err
		}
		var v varzDoc
		if err := json.Unmarshal(body, &v); err != nil {
			return nil, fmt.Errorf("GET %s: %w", path, err)
		}
		out = append(out, &v)
	}
	return out, nil
}

// overheadProbe measures what tracing costs the client. It sends
// closed-loop requests of the workload's mix, tracing every other one,
// and compares the median latencies of the two halves, so drift and
// cache warm-up fall on both halves alike.
func (s *session) overheadProbe(ctx context.Context) {
	seq := s.requests(s.o.seed^0x7ace, probeRequests)
	id := s.tr.begin("phase.probe", 0)
	var plain, traced []float64
	for i, r := range seq {
		t := s.tr
		if i%2 == 0 {
			t = nil
		}
		for _, x := range s.client.closedLoop(ctx, t, id, []request{r}) {
			if t == nil {
				plain = append(plain, us(x.latency))
			} else {
				traced = append(traced, us(x.latency))
			}
		}
	}
	s.tr.end(id)
	s.put("trace.overhead_pct", 100*(median(traced)/median(plain)-1), "%")
}

// layerMetrics computes every per-layer metric of a traced run: ratios
// from the /varz scrapes around the measured phase, generator-side
// figures, and in-process timings of each module's public functions.
func (s *session) layerMetrics(ctx context.Context, read readStats, reb rebuildStats) error {
	before, after, clientCPU := read.before, read.after, read.client
	e2e := read.samples
	if s.def.readRPS == 0 {
		before, after, clientCPU = reb.before, reb.after, reb.client
		e2e = reb.stream.samples
	}
	s.varzRatios(before, after)
	s.put("loadgen.client_cpu_s", clientCPU.Seconds(), "s")
	late := make([]float64, len(reb.stream.late))
	for i, d := range reb.stream.late {
		late[i] = ms(d)
	}
	s.put("loadgen.late_p99_ms", percentile(late, 0.99), "ms")

	if err := s.readPathLayers(ctx, e2e); err != nil {
		return err
	}
	if err := s.storeLayers(); err != nil {
		return err
	}
	return s.buildPathLayers()
}

// varzRatios derives the cache, zero-copy and allocation figures from
// per-world scrapes taken before and after the measured phase.
func (s *session) varzRatios(before, after []*varzDoc) {
	var hits, misses, file, total int64
	merged := [2]*loadgen.ServerVarz{{Routes: map[string]loadgen.RouteVarz{}}, {Routes: map[string]loadgen.RouteVarz{}}}
	for i := range before {
		b, a := before[i], after[i]
		hits += a.Cache.Hits - b.Cache.Hits
		misses += a.Cache.Misses - b.Cache.Misses
		if a.ZeroCopy != nil && b.ZeroCopy != nil {
			file += a.ZeroCopy.FileReads - b.ZeroCopy.FileReads
			total += a.ZeroCopy.FileReads + a.ZeroCopy.MemReads + a.ZeroCopy.Fallbacks -
				b.ZeroCopy.FileReads - b.ZeroCopy.MemReads - b.ZeroCopy.Fallbacks
		}
		// Worlds share one process, so its allocation counters are
		// taken once while the request counts add up across worlds.
		for j, v := range [2]*varzDoc{b, a} {
			merged[j].Process = v.Process
			for route, rv := range v.Routes {
				merged[j].Routes[fmt.Sprintf("%d %s", i, route)] = rv
			}
		}
	}
	s.put("serve.cache_lookups", float64(hits+misses), "count")
	s.put("serve.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	s.put("store.artifact_reads", float64(total), "count")
	s.put("store.zero_copy_file_share", ratio(file, total), "ratio")
	if nr, ok := loadgen.NewNodeReport("marketd", merged[0], merged[1]); ok {
		s.put("serve.allocs_per_req", nr.MallocsPerRequest, "count")
		s.put("serve.alloc_bytes_per_req", nr.AllocBytesPerRequest, "B")
	}
}

// ratio is num/den, or 0 when nothing was counted.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// discardWriter is a ResponseWriter that drops the body. It
// implements io.ReaderFrom, as net/http's connection writer does, so the
// zero-copy artifact path copies from the segment file as it would on a
// socket.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }
func (w *discardWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}
func (w *discardWriter) Write(b []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return len(b), nil
}
func (w *discardWriter) ReadFrom(r io.Reader) (int64, error) {
	w.WriteHeader(http.StatusOK)
	return io.Copy(io.Discard, r)
}
func (w *discardWriter) reset() {
	clear(w.header)
	w.status = 0
}

// openRegistry warm-starts the served worlds in process from the last
// boot's data directory: the same persisted generations marketd served.
func (s *session) openRegistry(ctx context.Context) (*scenario.Registry, error) {
	var specs []scenario.Spec
	if s.def.matrix {
		var err error
		if specs, err = scenario.LoadDir(s.o.scenarios); err != nil {
			return nil, err
		}
	} else {
		sp, err := scenario.Parse([]byte(fmt.Sprintf(`{"name":%q,"default":true,"seed":%d}`,
			singleWorld, simulation.DefaultConfig().Seed)), singleWorld+".json")
		if err != nil {
			return nil, err
		}
		specs = []scenario.Spec{sp}
	}
	return scenario.New(ctx, specs, scenario.Options{
		BaseCfg: simulation.DefaultConfig(), DataDir: s.dataDir, StoreKeep: 5, Timeout: 10 * time.Second,
	})
}

// localPath splits a request path into its world and the world-local
// path that world's own handler serves.
func (s *session) localPath(path string) (name, local string) {
	for _, w := range s.worlds {
		if w.prefix != "" && strings.HasPrefix(path, "/v1"+w.prefix+"/") {
			return strings.TrimPrefix(w.prefix, "/"), "/v1" + strings.TrimPrefix(path, "/v1"+w.prefix)
		}
	}
	return worldName(s.worlds[0].prefix), path
}

// readPathLayers times the serving layers in process.
func (s *session) readPathLayers(ctx context.Context, e2e []sample) error {
	reg, err := s.openRegistry(ctx)
	if err != nil {
		return err
	}
	// The workload's own sequence first (it yields the handler share of
	// client latency), then the other request family, so every endpoint
	// is timed on every workload.
	seqs := [][]request{s.requests(s.o.seed, sweepRequests)}
	switch s.o.workload {
	case "artifacts":
		seqs = append(seqs, queryRequests(s.o.seed, s.worlds, sweepRequests))
	case "queries":
		seqs = append(seqs, mixRequests(s.o.seed, s.prefixes(), sweepRequests, staticEndpoints))
	}
	parent := s.tr.begin("layers.read", 0)
	var ownHandler []float64
	for i, seq := range seqs {
		lat, err := s.handlerSweep(reg, parent, seq)
		if err != nil {
			return err
		}
		if i == 0 {
			ownHandler = lat
		}
	}
	client := make([]float64, len(e2e))
	for i, x := range e2e {
		client[i] = us(x.latency)
	}
	s.put("http.transport_us", percentile(client, 0.5)-percentile(ownHandler, 0.5), "us")

	// The middleware stack around a handler that does nothing.
	mw := serve.Wrap(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}), serve.NewMetrics(), "GET /noop", 10*time.Second)
	dw := &discardWriter{header: http.Header{}}
	for i := 0; i < microCalls; i++ {
		r := httptest.NewRequest(http.MethodGet, "/noop", nil)
		dw.reset()
		t0 := time.Now()
		mw.ServeHTTP(dw, r)
		s.tr.record("serve.middleware", parent, t0, time.Now())
	}

	// Routing: one cheap static path through the registry and straight
	// into its world, interleaved.
	name, local := s.localPath("/v1" + s.worlds[0].prefix + "/headline")
	direct := reg.World(name).Handler()
	var routed, plain []float64
	for i := 0; i < microCalls; i++ {
		r1 := httptest.NewRequest(http.MethodGet, "/v1"+s.worlds[0].prefix+"/headline", nil)
		r2 := httptest.NewRequest(http.MethodGet, local, nil)
		dw.reset()
		t0 := time.Now()
		reg.ServeHTTP(dw, r1)
		t1 := time.Now()
		dw.reset()
		direct.ServeHTTP(dw, r2)
		t2 := time.Now()
		routed = append(routed, us(t1.Sub(t0)))
		plain = append(plain, us(t2.Sub(t1)))
	}
	s.put("scenario.route_us", median(routed)-median(plain), "us")

	// Index lookups on each world's restored snapshot, keyed like the
	// queries workload.
	var hits, lookups int
	for wi, w := range s.worlds {
		snap := reg.World(worldName(w.prefix)).Snapshot()
		rng := loadgen.Derive(s.o.seed, uint64(10+wi))
		for i := 0; i < microCalls/len(s.worlds); i++ {
			k := w.keys[rng.Intn(len(w.keys))]
			p, err := netblock.ParsePrefix(k.prefix)
			if err != nil {
				return fmt.Errorf("transfer prefix %q: %w", k.prefix, err)
			}
			within, err := netblock.ParsePrefix(k.within)
			if err != nil {
				return fmt.Errorf("lookup prefix %q: %w", k.within, err)
			}
			d := clampDate(k.date.AddDate(0, 0, rng.Intn(730)-365))
			hits += s.timeLookups(parent, snap, p, within, d, k.date)
			lookups += 2
		}
	}
	s.put("queries.hit_share", float64(hits)/float64(lookups), "ratio")
	s.tr.end(parent)

	by := s.tr.selfByName()
	s.put("serve.middleware_us", medianUS(by["serve.middleware"]), "us")
	for _, n := range []string{"temporal.at", "temporal.timeline", "temporal.diff", "serve.lookup"} {
		s.put(n+"_us", medianUS(by[n]), "us")
	}
	return nil
}

// timeLookups times one key against the temporal and delegation
// indexes and reports how many of the two point lookups found state.
func (s *session) timeLookups(parent int, snap *serve.Snapshot, p, within netblock.Prefix, d, moved time.Time) int {
	hits := 0
	t0 := time.Now()
	pr := snap.Temporal.At(p, d)
	t1 := time.Now()
	snap.Temporal.Timeline(p)
	t2 := time.Now()
	snap.Temporal.Diff(clampDate(moved.AddDate(0, 0, -30)), clampDate(moved.AddDate(0, 0, 60)))
	t3 := time.Now()
	lk := snap.Delegations.Lookup(within)
	t4 := time.Now()
	s.tr.record("temporal.at", parent, t0, t1)
	s.tr.record("temporal.timeline", parent, t1, t2)
	s.tr.record("temporal.diff", parent, t2, t3)
	s.tr.record("serve.lookup", parent, t3, t4)
	if pr.Holder != nil {
		hits++
	}
	if len(lk.Exact)+len(lk.Covering)+len(lk.Covered) > 0 {
		hits++
	}
	return hits
}

// handlerSweep replays seq through each world's handler, grouped by
// endpoint so each group's allocations can be counted, and returns the
// per-request handler times in µs. A response other than 200 fails the
// run.
func (s *session) handlerSweep(reg *scenario.Registry, parent int, seq []request) ([]float64, error) {
	groups := make(map[string][]request)
	for _, r := range seq {
		groups[r.endpoint] = append(groups[r.endpoint], r)
	}
	names := make([]string, 0, len(groups))
	for n := range groups {
		names = append(names, n)
	}
	sort.Strings(names)
	dw := &discardWriter{header: http.Header{}}
	var all []float64
	for _, ep := range names {
		reqs := groups[ep]
		hs := make([]http.Handler, len(reqs))
		rs := make([]*http.Request, len(reqs))
		for i, r := range reqs {
			name, local := s.localPath(r.path)
			hs[i] = reg.World(name).Handler()
			rs[i] = httptest.NewRequest(http.MethodGet, local, nil)
		}
		lat := make([]float64, len(reqs))
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := range rs {
			dw.reset()
			t0 := time.Now()
			hs[i].ServeHTTP(dw, rs[i])
			t1 := time.Now()
			s.tr.record("serve.handler."+ep, parent, t0, t1)
			lat[i] = us(t1.Sub(t0))
			if dw.status != http.StatusOK {
				return nil, fmt.Errorf("in-process %s: status %d", reqs[i].path, dw.status)
			}
		}
		runtime.ReadMemStats(&m1)
		s.put("serve.handler_us."+ep, median(lat), "us")
		s.put("serve.handler_allocs."+ep, float64(m1.Mallocs-m0.Mallocs)/float64(len(reqs)), "count")
		all = append(all, lat...)
	}
	return all, nil
}

// storeLayers times the durable store: loading the served generation,
// appending it to a fresh store, compacting, and zero-copy artifact
// reads.
func (s *session) storeLayers() error {
	src, err := store.Open(filepath.Join(s.dataDir, worldName(s.worlds[0].prefix)))
	if err != nil {
		return err
	}
	latest, ok := src.Latest()
	if !ok {
		return fmt.Errorf("served store holds no generation")
	}
	parent := s.tr.begin("layers.store", 0)
	for i := 0; i < microCalls/4; i++ {
		p := staticPaths[i%len(staticPaths)]
		key, ctype := artifactKey(p)
		t0 := time.Now()
		ar, err := src.OpenArtifact(latest.Gen, key, ctype)
		if err != nil {
			return err
		}
		_, err = io.Copy(io.Discard, ar)
		ar.Close()
		s.tr.record("store.open_artifact", parent, t0, time.Now())
		if err != nil {
			return err
		}
	}
	dstDir := filepath.Join(s.dir, "store-copy")
	dst, err := store.Open(dstDir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dstDir)
	for i := 0; i < 3; i++ {
		id := s.tr.begin("store.load", parent)
		meta, arts, err := src.Load(latest.Gen)
		s.tr.end(id)
		if err != nil {
			return err
		}
		id = s.tr.begin("store.append", parent)
		_, err = dst.Append(meta, arts)
		s.tr.end(id)
		if err != nil {
			return err
		}
	}
	id := s.tr.begin("store.compact", parent)
	_, err = dst.CompactTo(1)
	s.tr.end(id)
	if err != nil {
		return err
	}
	s.tr.end(parent)
	by := s.tr.selfByName()
	s.put("store.open_artifact_us", medianUS(by["store.open_artifact"]), "us")
	s.put("store.load_ms", medianMS(by["store.load"]), "ms")
	s.put("store.append_ms", medianMS(by["store.append"]), "ms")
	s.put("store.compact_ms", medianMS(by["store.compact"]), "ms")
	return nil
}

// artifactKey maps a static path to its store key and content type.
func artifactKey(path string) (key, ctype string) {
	ctype = "application/json"
	if p, ok := strings.CutSuffix(path, "?format=csv"); ok {
		path, ctype = p, "text/csv"
	}
	key = strings.TrimPrefix(path, "/")
	if id, ok := strings.CutPrefix(key, "figures/"); ok {
		key = "fig" + id
	}
	return key, ctype
}

// allocs measures f's heap allocations (count and MiB) in this process.
func allocs(f func()) (count, mib float64) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs - m0.Mallocs), float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
}

// buildPathLayers times the build of the default world stage by stage,
// calling each module's public function directly.
func (s *session) buildPathLayers() error {
	cfg := simulation.DefaultConfig()
	parent := s.tr.begin("layers.build", 0)
	defer s.tr.end(parent)
	var err error
	timed := func(name string, f func()) {
		id := s.tr.begin(name, parent)
		f()
		s.tr.end(id)
	}

	timed("simulation.build", func() { _, err = simulation.Build(cfg) })
	if err != nil {
		return err
	}
	var study *core.Study
	timed("core.study", func() { study, err = core.NewStudy(cfg) })
	if err != nil {
		return err
	}

	var surveyAllocs, surveyMB []float64
	last := cfg.RoutingDays - 1
	for i := 0; i < surveyDays; i++ {
		d := last - i*cfg.RoutingDays/surveyDays
		n, mb := allocs(func() { timed("simulation.survey", func() { study.Routing.SurveyAt(d) }) })
		surveyAllocs, surveyMB = append(surveyAllocs, n), append(surveyMB, mb)
	}
	s.put("simulation.survey_allocs", median(surveyAllocs), "count")
	s.put("simulation.survey_mb", median(surveyMB), "MiB")

	n, _ := allocs(func() { timed("core.utilization", func() { _, err = study.UtilizationWorkers(1) }) })
	if err != nil {
		return err
	}
	s.put("core.utilization_allocs", n, "count")
	timed("core.rpki", func() { _, err = study.RPKISeries() })
	if err != nil {
		return err
	}
	survey := study.Routing.SurveyAt(last)
	date := cfg.RoutingStart.AddDate(0, 0, last)
	timed("delegation.infer", func() { delegation.DefaultInference(study.World.OrgSeries).FromSurvey(date, survey) })
	study, survey = nil, nil

	for _, w := range []struct {
		label   string
		workers int
	}{{"w1", 1}, {"nproc", runtime.NumCPU()}} {
		var snap *serve.Snapshot
		n, mb := allocs(func() {
			timed("serve.build."+w.label, func() {
				snap, err = serve.BuildSnapshotOpts(cfg, serve.BuildOptions{Workers: w.workers})
			})
		})
		if err != nil {
			return err
		}
		s.put("serve.build_allocs."+w.label, n, "count")
		s.put("serve.build_mb."+w.label, mb, "MiB")
		if w.workers != 1 {
			continue
		}
		// With one worker the stages run one after another, so each
		// stage's wall time is its own cost.
		for _, st := range snap.Stages {
			switch st.Name {
			case "utilization", "delegations", "temporal", "rpki", "transfers", "prices":
				s.put("serve.stage."+st.Name+"_ms", ms(st.Duration), "ms")
			}
		}
		in := snap.Temporal.Input()
		timed("temporal.build", func() { _, err = temporal.New(in) })
		if err != nil {
			return err
		}
	}

	by := s.tr.selfByName()
	for _, name := range []string{"simulation.build", "core.study", "simulation.survey", "core.utilization",
		"core.rpki", "delegation.infer", "temporal.build"} {
		s.put(name+"_ms", medianMS(by[name]), "ms")
	}
	s.put("serve.build_ms.w1", medianMS(by["serve.build.w1"]), "ms")
	s.put("serve.build_ms.nproc", medianMS(by["serve.build.nproc"]), "ms")
	return nil
}

func medianMS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = ms(d)
	}
	return median(xs)
}

func medianUS(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = us(d)
	}
	return median(xs)
}
