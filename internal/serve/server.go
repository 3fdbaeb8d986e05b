package serve

import (
	"fmt"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

// Options tunes a Server. The zero value picks sensible defaults.
type Options struct {
	// Timeout bounds each request's handler time (default 10s).
	Timeout time.Duration
	// EnableAdmin exposes POST /admin/rebuild when set.
	EnableAdmin bool
	// BuildWorkers caps snapshot build-stage concurrency. At <= 0 the
	// boot build uses NumCPU workers and a background rebuild
	// max(1, NumCPU-1), leaving a core to the requests it runs beside.
	// Any value yields byte-identical snapshots; see BuildOptions.
	BuildWorkers int
	// Store, when set, is the durable snapshot store: every successful
	// build is persisted to it, /v1/history and ?gen= pinned reads are
	// served from it, and New warm-starts from its newest valid
	// generation instead of building, so a restarted server answers its
	// first request immediately. The caller decides whether to follow up
	// with RebuildAsync for a fresh build (scenario.Registry.Run does).
	// An empty store or a failed restore falls back to a cold build.
	Store *store.Store
	// StoreKeep bounds retention: after each persist the store is
	// compacted to the newest StoreKeep generations (< 1: keep all).
	StoreKeep int
	// Follower makes this server a replication follower: it only ever
	// serves generations restored from its Store (seeded by
	// internal/replicate), never builds locally, and refuses rebuilds
	// (RebuildAsync declines, POST /admin/rebuild answers 409). New
	// fails instead of cold-building when the store has no restorable
	// generation — the caller must sync one first.
	Follower bool
	// ReplicationVarz, when set, supplies the `replication` section of
	// /varz (a replicate.Leader's or replicate.Replicator's Varz). A
	// func hook keeps serve free of a dependency on internal/replicate.
	ReplicationVarz func() any
	// ScenarioList, when set, supplies the GET /v1/scenarios document (a
	// scenario.Registry's listing); unset, the endpoint answers 404. The
	// same func-hook pattern as ReplicationVarz keeps serve free of a
	// dependency on internal/scenario.
	ScenarioList func() any
	// ScenarioVarz, when set, supplies the `scenarios` section of /varz
	// (per-scenario generation, build timings, and store bytes). The flat
	// /varz fields always describe this server alone, so the default
	// scenario's server carries both views and dashboards keyed on the
	// flat fields keep working.
	ScenarioVarz func() any
	// ReadyCheck, when set, gates /readyz: a non-nil error makes the
	// endpoint answer 503 with the error as the reason, so a router
	// polling /readyz drains this node until the check clears. Followers
	// use it to reflect replication lag (replicate.Replicator.ReadyCheck
	// wired by cmd/marketd's -max-lag flag); the same func-hook pattern
	// as ReplicationVarz keeps serve dependency-free. It is called on
	// every /readyz request and must be safe for concurrent use.
	ReadyCheck func() error
	// Logf, when set, receives operational log lines (rebuild failures
	// with the failing stage, swap notices). No trailing newline needed.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Timeout <= 0 {
		o.Timeout = 10 * time.Second
	}
	return o
}

// queryCacheSize caps the per-snapshot filtered-query cache.
const queryCacheSize = 256

// state pairs a snapshot with the query cache rendered from it. They swap
// together so a cached response can never describe a different snapshot
// generation than the one being served.
type state struct {
	snap  *Snapshot
	cache *queryCache
}

// Server serves one Snapshot at a time over HTTP. Reads are wait-free on
// the snapshot pointer: handlers load the current state once and use it
// for the whole request, so a concurrent swap never mixes generations.
// Rebuilds happen on a background goroutine and only the finished
// snapshot is swapped in; readers are never blocked by a build.
type Server struct {
	opts    Options
	metrics *Metrics
	mux     *http.ServeMux
	// patterns records every route pattern registered on the mux
	// (built-ins via handle, extras via Mount), in registration order.
	// Written only during construction and pre-serving Mount calls;
	// Routes exposes it so tests can hold documentation to the real
	// surface.
	patterns []string
	// baseCfg is the config the server was constructed with; every
	// stored generation is restored against it (restoreSnapshot overlays
	// the persisted meta's identity fields).
	baseCfg simulation.Config

	st       atomic.Pointer[state]
	seq      atomic.Uint64
	building atomic.Bool
	wg       sync.WaitGroup

	// gens memoizes past store generations loaded for ?gen= pinned
	// reads; warm reports whether this server booted from
	// the store instead of a cold build.
	gens *memo[uint64, *Snapshot]
	warm bool

	// lastRebuildErr holds the most recent background-rebuild failure
	// (an error string wrapped with the failing stage name), "" after a
	// success. Exposed on /varz so partial-build failures are
	// diagnosable without log access.
	lastRebuildErr atomic.Value // string
}

// New returns the serving layer for cfg with a snapshot ready to serve:
// restored from the durable store when it holds a valid generation,
// built synchronously otherwise (at DefaultConfig on a 2-core host a
// restore takes 55–75ms, a one-worker build 55–75ms). A cold-built
// initial snapshot is persisted like any other successful build.
func New(cfg simulation.Config, opts Options) (*Server, error) {
	s := &Server{
		opts:    opts.withDefaults(),
		metrics: NewMetrics(),
		mux:     http.NewServeMux(),
		baseCfg: cfg,
		gens:    newMemo[uint64, *Snapshot](pinnedGenerations),
	}
	s.lastRebuildErr.Store("")

	snap := s.tryWarmStart()
	if snap == nil {
		if s.opts.Follower {
			// A follower never builds: its snapshots come from the leader.
			// The caller (cmd/marketd) runs an initial sync before New.
			return nil, fmt.Errorf("serve: follower mode: no restorable generation in store")
		}
		var err error
		if snap, err = BuildSnapshotOpts(cfg, s.buildOptions()); err != nil {
			return nil, err
		}
		s.persist(snap)
	}
	snap.Seq = s.seq.Add(1)
	s.st.Store(&state{snap: snap, cache: newQueryCache(queryCacheSize)})
	s.routes()
	return s, nil
}

// tryWarmStart restores the newest valid store generation. It returns
// nil — meaning "cold-build instead" — for a missing store, an empty
// store, or a failed restore; a restore failure is logged, never fatal,
// because the cold path always works.
func (s *Server) tryWarmStart() *Snapshot {
	if s.opts.Store == nil {
		return nil
	}
	latest, ok := s.opts.Store.Latest()
	if !ok {
		return nil
	}
	snap, err := s.loadSnapshot(latest.Gen)
	if err != nil {
		s.logf("serve: warm start from generation %d failed, cold building: %v", latest.Gen, err)
		return nil
	}
	s.warm = true
	return snap
}

// loadSnapshot reads generation gen from the store, re-verifying every
// checksum, and restores it against the server's base config. It is the
// one load path for a stored generation: warm start, follower adoption
// and ?gen= pinned reads all call it, so each gets the same Snapshot
// shape and fails the same way on a generation it cannot restore.
func (s *Server) loadSnapshot(gen uint64) (*Snapshot, error) {
	meta, arts, err := s.opts.Store.Load(gen)
	if err != nil {
		return nil, err
	}
	return restoreSnapshot(meta, arts, s.baseCfg)
}

// WarmStarted reports whether this server booted by restoring a store
// generation rather than building a snapshot.
func (s *Server) WarmStarted() bool { return s.warm }

// persist writes a freshly built snapshot to the durable store (when
// one is configured) and enforces retention. Persistence is best-effort
// by design: the snapshot serves from memory either way, so a full
// disk degrades durability, not availability. Failures are logged and
// surface in /varz store.last_persist_error.
func (s *Server) persist(snap *Snapshot) {
	if s.opts.Store == nil || s.opts.Follower {
		// A follower's store is written exclusively by the replicator;
		// persisting here would mint generation IDs the leader never
		// issued.
		return
	}
	meta, arts, err := snapshotRecord(snap)
	if err != nil {
		s.logf("serve: persist: %v", err)
		return
	}
	meta, err = s.opts.Store.Append(meta, arts)
	if err != nil {
		s.logf("serve: persist: %v", err)
		return
	}
	snap.Gen = meta.Gen
	if removed, err := s.opts.Store.CompactTo(s.opts.StoreKeep); err != nil {
		s.logf("serve: compact: %v", err)
	} else if removed > 0 {
		s.logf("serve: retention: compacted %d old generation(s), keeping %d", removed, s.opts.StoreKeep)
	}
	s.logf("serve: persisted generation %d", meta.Gen)
}

// buildOptions derives the snapshot build options from the server
// options.
func (s *Server) buildOptions() BuildOptions {
	return BuildOptions{Workers: s.opts.BuildWorkers}
}

// rebuildOptions is buildOptions for a background rebuild. Unless the
// worker count is explicit, it leaves one core free: a build that
// saturates every core makes reads served beside it wait a scheduler
// quantum for a P.
func (s *Server) rebuildOptions() BuildOptions {
	opts := s.buildOptions()
	if opts.Workers <= 0 {
		opts.Workers = max(1, runtime.NumCPU()-1)
	}
	return opts
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.opts.Logf != nil {
		s.opts.Logf(format, args...)
	}
}

// Handler returns the fully wired HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Metrics exposes the server's counter registry (shared with /varz).
func (s *Server) Metrics() *Metrics { return s.metrics }

// Snapshot returns the currently served snapshot.
func (s *Server) Snapshot() *Snapshot { return s.st.Load().snap }

// current returns the full serving state for one request's lifetime.
func (s *Server) current() *state { return s.st.Load() }

// swap publishes a freshly built snapshot together with an empty query
// cache sized from the options. Readers holding the old state keep using
// it untouched.
func (s *Server) swap(snap *Snapshot) {
	snap.Seq = s.seq.Add(1)
	s.st.Store(&state{snap: snap, cache: newQueryCache(queryCacheSize)})
}

// Rebuilding reports whether a background rebuild is in flight.
func (s *Server) Rebuilding() bool { return s.building.Load() }

// Follower reports whether this server runs in replication-follower
// mode (serves adopted generations only, refuses local rebuilds).
func (s *Server) Follower() bool { return s.opts.Follower }

// Mount registers an extra handler (e.g. the replication leader
// endpoints) through the same middleware stack as the built-in routes.
// A non-positive timeout disables the per-request timeout layer — pass
// 0 for endpoints that stream large bodies. Call before serving begins;
// the mux is read-only afterwards.
func (s *Server) Mount(pattern string, h http.Handler, timeout time.Duration) {
	s.patterns = append(s.patterns, pattern)
	s.mux.Handle(pattern, Wrap(h, s.metrics, pattern, timeout))
}

// Routes returns every route pattern registered on this server's mux —
// the built-in endpoints plus anything Mounted — sorted. It is the
// authoritative HTTP surface; the docs-drift test checks docs/API.md
// against it.
func (s *Server) Routes() []string {
	out := append([]string(nil), s.patterns...)
	sort.Strings(out)
	return out
}

// AdoptGeneration loads gen from the store, restores it against the
// server's base config, and hot-swaps it in as the served snapshot —
// the follower-side counterpart of a rebuild. internal/replicate calls
// it (through the Apply hook) after importing a new generation; readers
// are never blocked, exactly as with a rebuild swap. Adopting the
// generation already served is a no-op: a follower's first sync pass
// offers the generation New just restored.
func (s *Server) AdoptGeneration(gen uint64) error {
	if s.opts.Store == nil {
		return fmt.Errorf("serve: adopt generation %d: no store configured", gen)
	}
	if s.Snapshot().Gen == gen {
		return nil
	}
	snap, err := s.loadSnapshot(gen)
	if err != nil {
		return fmt.Errorf("serve: adopt generation %d: %w", gen, err)
	}
	s.swap(snap)
	s.logf("serve: adopted generation %d (seq=%d)", gen, snap.Seq)
	return nil
}

// RebuildAsync starts a background rebuild with cfg and reports whether
// it was started; it declines (returning false) while another rebuild is
// already in flight, so concurrent triggers cannot stack builds. The
// result is published via swap on success and counted on failure either
// way; Wait blocks until all started rebuilds finish.
func (s *Server) RebuildAsync(cfg simulation.Config) bool {
	if s.opts.Follower {
		return false // followers adopt generations, they never build
	}
	if !s.building.CompareAndSwap(false, true) {
		return false
	}
	s.wg.Add(1)
	go func() { // coordinated: wg.Done + building flag released in defer
		defer s.wg.Done()
		defer s.building.Store(false)
		s.metrics.rebuilds.Add(1)
		// Start from a collected heap. The collector's heap goal is twice
		// the heap found live by the last cycle, and a build allocates
		// fast enough to run only a few cycles, so without this the
		// build's peak memory depends on where the previous generation's
		// garbage and the read path left the last cycle, and varies by
		// tens of MiB from one rebuild to the next.
		runtime.GC()
		snap, err := BuildSnapshotOpts(cfg, s.rebuildOptions())
		if err == nil {
			// Persist before swap: Gen is read-only once published. A
			// panic in it fails this rebuild, not the process, and the
			// old snapshot stays served.
			_, err = supervised(func() (struct{}, error) { s.persist(snap); return struct{}{}, nil })
			if err != nil {
				err = fmt.Errorf("serve: persist: %w", err)
			}
		}
		if err != nil {
			// A build error arrives wrapped with the failing stage name
			// ("serve: build stage %q: ..."); keep the chain intact so
			// both the log line and /varz name the stage.
			s.metrics.rebuildErrors.Add(1)
			s.lastRebuildErr.Store(err.Error())
			s.logf("serve: rebuild failed (seed=%d): %v", cfg.Seed, err)
			return
		}
		s.lastRebuildErr.Store("")
		s.swap(snap)
		s.logf("serve: rebuild complete: seq=%d gen=%d seed=%d in %v (%d workers)",
			snap.Seq, snap.Gen, snap.Cfg.Seed, snap.BuildTime.Round(time.Millisecond), snap.Workers)
	}()
	return true
}

// Wait blocks until every in-flight background rebuild has finished. Call
// it during shutdown after the listener has drained.
func (s *Server) Wait() { s.wg.Wait() }

// varz assembles the full counter document, including snapshot identity
// and cache occupancy from the current generation and — when a store is
// configured — the durable store's health.
func (s *Server) varz(now time.Time) varzView {
	v := s.metrics.varz(now)
	st := s.current()
	v.Snapshot = &varzSnapshot{
		Seq:            st.snap.Seq,
		Gen:            st.snap.Gen,
		Source:         string(st.snap.Source),
		Seed:           st.snap.Cfg.Seed,
		BuiltAt:        st.snap.BuiltAt.UTC().Format(time.RFC3339),
		AgeSeconds:     st.snap.Age(now).Seconds(),
		BuildSeconds:   st.snap.BuildTime.Seconds(),
		BuildWorkers:   st.snap.Workers,
		Delegations:    st.snap.Delegations.Len(),
		Transfers:      st.snap.TransferTotal(),
		TemporalEvents: st.snap.Temporal.EventCount(),
		TemporalSpans:  st.snap.Temporal.SpanCount(),
		TemporalBytes:  st.snap.Temporal.SizeBytes(),
	}
	for _, stg := range st.snap.Stages {
		v.Snapshot.BuildStages = append(v.Snapshot.BuildStages, varzStage{
			Name:    stg.Name,
			Seconds: stg.Duration.Seconds(),
		})
	}
	v.Cache = &varzCache{
		Hits:      s.metrics.cacheHits.Load(),
		Misses:    s.metrics.cacheMisses.Load(),
		Collapsed: s.metrics.cacheCollapsed.Load(),
		Entries:   st.cache.size(),
	}
	v.ZeroCopy = &varzZeroCopy{
		MemReads: s.metrics.artifactMemReads.Load(),
		Computed: s.metrics.artifactComputed.Load(),
	}
	v.Rebuilds = &varzRebuilds{
		Total:    s.metrics.rebuilds.Load(),
		Errors:   s.metrics.rebuildErrors.Load(),
		InFlight: s.building.Load(),
	}
	if msg, _ := s.lastRebuildErr.Load().(string); msg != "" {
		v.Rebuilds.LastError = msg
	}
	if s.opts.Store != nil {
		stats := s.opts.Store.Stats()
		v.Store = &varzStore{
			Segments:             stats.Segments,
			Bytes:                stats.Bytes,
			NextGen:              stats.NextGen,
			Persists:             stats.Persists,
			PersistErrors:        stats.PersistErrors,
			LastPersistError:     stats.LastPersistError,
			TruncatedTails:       stats.TruncatedTails,
			RecoveredGenerations: stats.RecoveredGenerations,
			CompactedSegments:    stats.CompactedSegments,
			ImportedSegments:     stats.ImportedSegments,
			WarmStart:            s.warm,
		}
	}
	if s.opts.ReplicationVarz != nil {
		v.Replication = s.opts.ReplicationVarz()
	}
	if s.opts.ScenarioVarz != nil {
		v.Scenarios = s.opts.ScenarioVarz()
	}
	return v
}

// rebuildConfig derives the config for an admin-triggered rebuild: the
// current snapshot's config, optionally reseeded.
func (s *Server) rebuildConfig(seed int64, reseed bool) simulation.Config {
	cfg := s.Snapshot().Cfg
	if reseed {
		cfg.Seed = seed
	}
	return cfg
}

// String identifies the server's snapshot generation (used in logs).
func (s *Server) String() string {
	snap := s.Snapshot()
	return fmt.Sprintf("serve.Server{seq=%d seed=%d}", snap.Seq, snap.Cfg.Seed)
}
