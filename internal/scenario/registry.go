package scenario

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strings"
	"time"

	"ipv4market/internal/parallel"
	"ipv4market/internal/replicate"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

// Options configures a Registry.
type Options struct {
	// BaseCfg is the world scale every scenario starts from; each spec's
	// seed and overrides are applied on top (Spec.Config).
	BaseCfg simulation.Config
	// DataDir, when set, roots the per-scenario stores: scenario "storm"
	// persists under DataDir/storm with its own generation ratchet and
	// retention, and the implicit world (ImplicitName) at DataDir itself.
	// Empty runs the whole matrix in memory.
	DataDir string
	// StoreKeep bounds per-scenario retention (< 1: keep all).
	StoreKeep int
	// Timeout, EnableAdmin, and BuildWorkers pass through to each
	// scenario's serve.Options.
	Timeout      time.Duration
	EnableAdmin  bool
	BuildWorkers int
	// ScenarioWorkers caps how many scenario worlds build concurrently
	// during New (<= 0: all at once, bounded by internal/parallel's own
	// worker default). Any value yields the same per-scenario bytes.
	ScenarioWorkers int

	// FollowURL, when set, runs every scenario as a replication follower
	// of the leader at this base URL: scenario "storm" polls
	// FollowURL/v1/storm/v1/replication/... (the scenario router strips
	// the /v1/storm prefix on the leader side) and the implicit world
	// polls FollowURL/v1/replication/... directly. Requires DataDir.
	FollowURL string
	// PollInterval is the follower poll period (default 5s), also the
	// retry period of the initial sync.
	PollInterval time.Duration
	// LagGate enables the follower /readyz lag gate with the bounds
	// below (replicate.Replicator.ReadyCheck semantics: a negative
	// MaxLagGens or zero MaxLagAge disables that dimension).
	LagGate    bool
	MaxLagGens int
	MaxLagAge  time.Duration

	// Logf receives operational log lines, prefixed with the scenario
	// name.
	Logf func(format string, args ...any)
}

// world is one scenario's serving stack.
type world struct {
	spec   Spec
	cfg    simulation.Config
	srv    *serve.Server
	st     *store.Store // nil when running in memory
	leader *replicate.Leader
	repl   *replicate.Replicator // follower mode only
}

// Registry owns one serving world per scenario and routes
// /v1/{scenario}/... to it. It is itself the http.Handler for the whole
// matrix: scenario-prefixed paths are rewritten and dispatched to the
// named world, everything else goes to the default scenario unchanged,
// so single-scenario clients keep working against a matrix deployment.
type Registry struct {
	opts   Options
	specs  []Spec // sorted by name
	def    string // default scenario name
	byName map[string]*world
	order  []string // scenario names, sorted
}

// New builds the full scenario matrix: every world's snapshot is built
// (or warm-started / follower-synced) before New returns, with the
// scenario builds themselves fanned out via internal/parallel — each
// world's internal stage DAG runs inside that budget. ctx bounds the
// follower initial sync; leaders ignore it.
func New(ctx context.Context, specs []Spec, opts Options) (*Registry, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("scenario: no scenarios to serve")
	}
	if opts.FollowURL != "" && opts.DataDir == "" {
		return nil, fmt.Errorf("scenario: follower mode requires a data dir")
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 5 * time.Second
	}
	reg := &Registry{
		opts:   opts,
		specs:  append([]Spec(nil), specs...),
		def:    DefaultName(specs),
		byName: make(map[string]*world, len(specs)),
	}
	sort.Slice(reg.specs, func(i, j int) bool { return reg.specs[i].Name < reg.specs[j].Name })

	// Build every world concurrently. The hooks installed on each server
	// close over reg; they are only called once serving starts, after New
	// has fully populated the registry.
	worlds, err := parallel.Map(ctx, opts.ScenarioWorkers, len(reg.specs),
		func(ctx context.Context, i int) (*world, error) {
			return reg.buildWorld(ctx, reg.specs[i])
		})
	if err != nil {
		return nil, err
	}
	for _, w := range worlds {
		reg.byName[w.spec.Name] = w
		reg.order = append(reg.order, w.spec.Name)
	}
	return reg, nil
}

// buildWorld constructs one scenario's store, replication role, and
// serving layer.
func (r *Registry) buildWorld(ctx context.Context, spec Spec) (*world, error) {
	w := &world{spec: spec, cfg: spec.Config(r.opts.BaseCfg)}
	logf := r.prefixedLogf(spec.Name)

	if r.opts.DataDir != "" {
		dir := storeDir(r.opts.DataDir, spec.Name)
		st, err := store.Open(dir)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		w.st = st
		stats := st.Stats()
		logf("store %s: %d generation(s), %d bytes, %d corrupt segment(s) quarantined",
			dir, stats.Segments, stats.Bytes, stats.TruncatedTails)
	}

	so := serve.Options{
		Timeout:      r.opts.Timeout,
		EnableAdmin:  r.opts.EnableAdmin,
		BuildWorkers: r.opts.BuildWorkers,
		Store:        w.st,
		StoreKeep:    r.opts.StoreKeep,
		WarmStart:    true,
		ScenarioList: r.ListDoc,
		ScenarioVarz: r.VarzDoc,
		Logf:         logf,
	}

	if r.opts.FollowURL != "" {
		// Follower: mirror this scenario's segment stream from the leader.
		// The leader's scenario router accepts the nested /v1/{name}/v1/
		// replication/... form and strips the scenario prefix.
		repl, err := replicate.New(replicate.Options{
			LeaderURL: leaderURL(r.opts.FollowURL, spec.Name),
			Store:     w.st,
			Interval:  r.opts.PollInterval,
			Keep:      r.opts.StoreKeep,
			Logf:      logf,
		})
		if err != nil {
			return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
		}
		w.repl = repl
		so.Follower = true
		so.ReplicationVarz = repl.Varz
		if r.opts.LagGate {
			so.ReadyCheck = repl.ReadyCheck(r.opts.MaxLagGens, r.opts.MaxLagAge)
		}
		// A follower cannot serve before its first generation arrives.
		if err := r.initialSync(ctx, w, logf); err != nil {
			return nil, err
		}
	} else if w.st != nil {
		w.leader = replicate.NewLeader(w.st)
		so.ReplicationVarz = w.leader.Varz
	}

	srv, err := serve.New(w.cfg, so)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", spec.Name, err)
	}
	w.srv = srv

	if w.leader != nil {
		srv.Mount(replicate.PatternGenerations, w.leader.Generations(), r.opts.Timeout)
		// Segment bodies stream whole sealed segments; no per-request
		// timeout, so a slow follower's download is never cut mid-stream.
		srv.Mount(replicate.PatternSegment, w.leader.Segment(), 0)
	}
	if w.repl != nil {
		w.repl.SetApply(func(m store.Meta) error { return srv.AdoptGeneration(m.Gen) })
	}
	return w, nil
}

// initialSync blocks until the follower's store holds at least one
// generation, polling the leader every PollInterval until ctx is
// cancelled. A store that already holds one (a restarted follower)
// serves at once; the replication loop catches it up.
func (r *Registry) initialSync(ctx context.Context, w *world, logf func(string, ...any)) error {
	for {
		if _, ok := w.st.Latest(); ok {
			return nil
		}
		if err := w.repl.SyncOnce(ctx); err != nil && ctx.Err() == nil {
			logf("initial sync failed (will retry in %s): %v", r.opts.PollInterval, err)
		}
		if _, ok := w.st.Latest(); ok {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("scenario %s: initial sync: %w", w.spec.Name, ctx.Err())
		case <-time.After(r.opts.PollInterval):
		}
	}
}

// storeDir is the per-scenario store location: a subdirectory named
// after the scenario, giving it an independent generation ratchet and
// retention policy. The implicit world keeps the data dir's root, where
// a single-world marketd has always kept its segments.
func storeDir(dataDir, name string) string {
	if name == ImplicitName {
		return dataDir
	}
	return dataDir + "/" + name
}

// leaderURL is the base URL a follower world replicates from: the
// leader's scenario prefix, or the bare leader for the implicit world,
// so it pairs with a single-world leader of any version.
func leaderURL(followURL, name string) string {
	base := strings.TrimRight(followURL, "/")
	if name == ImplicitName {
		return base
	}
	return base + "/v1/" + name
}

// prefixedLogf returns a never-nil logger tagging each line with the
// scenario name (a no-op when no Logf is configured), so callers can
// log unconditionally.
func (r *Registry) prefixedLogf(name string) func(string, ...any) {
	return func(format string, args ...any) {
		if r.opts.Logf != nil {
			r.opts.Logf("["+name+"] "+format, args...)
		}
	}
}

// Default returns the default scenario's server (the one bare /v1/...
// paths alias).
func (r *Registry) Default() *serve.Server { return r.byName[r.def].srv }

// DefaultName returns the default scenario's name.
func (r *Registry) DefaultName() string { return r.def }

// Names returns the scenario names, sorted.
func (r *Registry) Names() []string { return append([]string(nil), r.order...) }

// World returns the named scenario's server, or nil.
func (r *Registry) World(name string) *serve.Server {
	if w, ok := r.byName[name]; ok {
		return w.srv
	}
	return nil
}

// Store returns the named scenario's durable store, or nil when the
// matrix runs in memory or the name is unknown.
func (r *Registry) Store(name string) *store.Store {
	if w, ok := r.byName[name]; ok {
		return w.st
	}
	return nil
}

// ServeHTTP routes the matrix: /v1/{scenario}/... is rewritten to the
// named world's native surface, every other path goes to the default
// scenario unchanged.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	if name, rest, ok := r.splitScenarioPath(req.URL.Path); ok {
		r.byName[name].srv.Handler().ServeHTTP(w, rewritePath(req, rest))
		return
	}
	r.Default().Handler().ServeHTTP(w, req)
}

// splitScenarioPath recognises /v1/{scenario}/... for a known scenario
// name and returns the rewritten world-local path. The first segment
// after the scenario decides the form: operational and nested
// replication paths (/varz, /healthz, /readyz, /admin/..., /v1/...)
// forward as-is, artifact paths get the /v1 prefix restored — so
// /v1/storm/table1 → /v1/table1 and /v1/storm/varz → /varz.
func (r *Registry) splitScenarioPath(path string) (name, rest string, ok bool) {
	const v1 = "/v1/"
	if !strings.HasPrefix(path, v1) {
		return "", "", false
	}
	tail := path[len(v1):]
	seg := tail
	if i := strings.IndexByte(tail, '/'); i >= 0 {
		seg = tail[:i]
		tail = tail[i:] // keeps the leading slash
	} else {
		tail = ""
	}
	if _, known := r.byName[seg]; !known {
		return "", "", false
	}
	if tail == "" || tail == "/" {
		// Bare /v1/{scenario}: answer with the scenario listing so the
		// prefix itself is discoverable.
		return seg, "/v1/scenarios", true
	}
	switch firstSegment(tail) {
	case "v1", "varz", "healthz", "readyz", "admin":
		return seg, tail, true
	}
	return seg, "/v1" + tail, true
}

func firstSegment(path string) string {
	s := strings.TrimPrefix(path, "/")
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i]
	}
	return s
}

// rewritePath clones req with the world-local path. The clone is
// shallow: body and context are shared, only the URL differs.
func rewritePath(req *http.Request, path string) *http.Request {
	r2 := new(http.Request)
	*r2 = *req
	u2 := *req.URL
	u2.Path = path
	u2.RawPath = ""
	r2.URL = &u2
	return r2
}

// Run starts the matrix's background work and returns immediately:
// each follower world's replication loop (stopped when ctx is
// cancelled), and a fresh rebuild of each warm-started leader world,
// which is serving its last persisted generation by design and so
// converges on a current snapshot without delaying the first request.
// Wait covers the rebuilds.
func (r *Registry) Run(ctx context.Context) {
	for _, name := range r.order {
		w := r.byName[name]
		switch {
		case w.repl != nil:
			go w.repl.Run(ctx)
		case w.srv.WarmStarted() && w.srv.RebuildAsync(w.cfg):
			r.prefixedLogf(name)("warm start: fresh rebuild started in background")
		}
	}
}

// RebuildAll triggers a background rebuild of every scenario with its
// own config (the SIGHUP surface) and returns how many started;
// scenarios with a rebuild already in flight are skipped.
func (r *Registry) RebuildAll() int {
	started := 0
	for _, name := range r.order {
		w := r.byName[name]
		if w.srv.RebuildAsync(w.cfg) {
			started++
		}
	}
	return started
}

// Wait blocks until every scenario's in-flight rebuilds finish.
func (r *Registry) Wait() {
	for _, name := range r.order {
		r.byName[name].srv.Wait()
	}
}

// scenarioListDoc is the GET /v1/scenarios document.
type scenarioListDoc struct {
	Default   string             `json:"default"`
	Scenarios []scenarioListItem `json:"scenarios"`
}

type scenarioListItem struct {
	Name        string `json:"name"`
	Default     bool   `json:"default"`
	Seed        int64  `json:"seed"`
	LIRs        int    `json:"lirs"`
	RoutingDays int    `json:"routing_days"`
	Adversarial bool   `json:"adversarial"`
	PriceShocks int    `json:"price_shocks,omitempty"`
	ChurnStorms int    `json:"rpki_churn_storms,omitempty"`
	HijackWaves int    `json:"hijack_waves,omitempty"`
	Gen         uint64 `json:"gen"`
	Seq         uint64 `json:"seq"`
}

// ListDoc builds the GET /v1/scenarios document: every scenario with
// its knob summary and currently served generation.
func (r *Registry) ListDoc() any {
	doc := scenarioListDoc{Default: r.def}
	for _, name := range r.order {
		w := r.byName[name]
		snap := w.srv.Snapshot()
		doc.Scenarios = append(doc.Scenarios, scenarioListItem{
			Name:        name,
			Default:     name == r.def,
			Seed:        w.cfg.Seed,
			LIRs:        w.cfg.NumLIRs,
			RoutingDays: w.cfg.RoutingDays,
			Adversarial: w.spec.Adversarial(),
			PriceShocks: len(w.spec.PriceShocks),
			ChurnStorms: len(w.spec.RPKIChurnStorms),
			HijackWaves: len(w.spec.HijackWaves),
			Gen:         snap.Gen,
			Seq:         snap.Seq,
		})
	}
	return doc
}

// scenarioVarzSection is one scenario's /varz section. The sections ride
// as a sorted slice so the JSON order is deterministic.
type scenarioVarzSection struct {
	Name          string              `json:"name"`
	Default       bool                `json:"default"`
	Seed          int64               `json:"seed"`
	Gen           uint64              `json:"gen"`
	Seq           uint64              `json:"seq"`
	Source        string              `json:"source"`
	Adversarial   bool                `json:"adversarial"`
	BuildSeconds  float64             `json:"build_seconds"`
	BuildStages   []scenarioVarzStage `json:"build_stages,omitempty"`
	StoreSegments int                 `json:"store_segments,omitempty"`
	StoreBytes    int64               `json:"store_bytes,omitempty"`
}

type scenarioVarzStage struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
}

// VarzDoc builds the per-scenario /varz sections: generation identity
// and per-stage build timings for every world, plus its store health.
// The flat /varz fields stay on the default scenario's server.
func (r *Registry) VarzDoc() any {
	out := make([]scenarioVarzSection, 0, len(r.order))
	for _, name := range r.order {
		w := r.byName[name]
		snap := w.srv.Snapshot()
		sec := scenarioVarzSection{
			Name:         name,
			Default:      name == r.def,
			Seed:         snap.Cfg.Seed,
			Gen:          snap.Gen,
			Seq:          snap.Seq,
			Source:       string(snap.Source),
			Adversarial:  w.spec.Adversarial(),
			BuildSeconds: snap.BuildTime.Seconds(),
		}
		for _, stg := range snap.Stages {
			sec.BuildStages = append(sec.BuildStages, scenarioVarzStage{
				Name:    stg.Name,
				Seconds: stg.Duration.Seconds(),
			})
		}
		if w.st != nil {
			stats := w.st.Stats()
			sec.StoreSegments = stats.Segments
			sec.StoreBytes = stats.Bytes
		}
		out = append(out, sec)
	}
	return out
}
