package serve

import (
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ipv4market/internal/market"
	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// routes wires every endpoint through the shared middleware stack. Each
// pattern is registered once, at construction; the mux is read-only
// afterwards.
func (s *Server) routes() {
	// static endpoints resolve their pre-encoded artifact from the
	// current snapshot — or, with ?gen=N, from a persisted generation,
	// served with the stored bodies and ETags.
	static := func(key string) http.HandlerFunc {
		return func(w http.ResponseWriter, r *http.Request) {
			s.serveStatic(w, r, queryOf(r), key)
		}
	}

	s.handle("GET /v1/table1", static("table1"))
	s.handle("GET /v1/figures/{id}", s.handleFigure)
	s.handle("GET /v1/prices", s.handlePrices)
	s.handle("GET /v1/transfers", static("transfers"))
	s.handle("GET /v1/delegations", s.handleDelegations)
	s.handle("GET /v1/leasing", static("leasing"))
	s.handle("GET /v1/headline", static("headline"))
	s.handle("GET /v1/utilization", static("utilization"))
	s.handle("GET /v1/rpki", static("rpki"))
	s.handle("GET /v1/scenarios", s.handleScenarios)
	s.handle("GET /v1/history", s.handleHistory)
	s.handle("GET /v1/asof", s.handleAsof)
	s.handle("GET /v1/asof/timeline", s.handleAsofTimeline)
	s.handle("GET /v1/asof/diff", s.handleAsofDiff)

	s.handle("GET /healthz", s.handleHealthz)
	s.handle("GET /readyz", s.handleReadyz)
	s.handle("GET /varz", s.handleVarz)
	if s.opts.EnableAdmin {
		s.handle("POST /admin/rebuild", s.handleRebuild)
	}
}

// handle registers pattern with the full middleware stack applied and
// records it for Routes.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.patterns = append(s.patterns, pattern)
	s.mux.Handle(pattern, Wrap(h, s.metrics, pattern, s.opts.Timeout))
}

// handleFigure serves /v1/figures/{id} for the paper's figures 1-4.
func (s *Server) handleFigure(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	switch id {
	case "1", "2", "3", "4":
	default:
		writeError(w, http.StatusNotFound, "unknown figure "+id+" (have 1-4)")
		return
	}
	s.serveStatic(w, r, queryOf(r), "fig"+id)
}

// priceFilter is the parsed /v1/prices query. The quarter rides as a
// parsed stats.Quarter so matching a row is a struct compare, not a
// per-row String() rendering.
type priceFilter struct {
	bits       int
	hasBits    bool
	region     registry.RIR
	hasRIR     bool
	quarter    stats.Quarter
	hasQuarter bool
}

// parsePriceFilter validates the size/region/quarter query parameters.
func parsePriceFilter(q url.Values) (priceFilter, error) {
	var f priceFilter
	if v := q.Get("size"); v != "" {
		bits, err := strconv.Atoi(strings.TrimPrefix(v, "/"))
		if err != nil || bits < 0 || bits > 32 {
			return f, fmt.Errorf("size %q: want a prefix length such as /16", v)
		}
		f.bits, f.hasBits = bits, true
	}
	if v := q.Get("region"); v != "" {
		rir, err := registry.ParseRIR(v)
		if err != nil {
			return f, fmt.Errorf("region %q: %w", v, err)
		}
		f.region, f.hasRIR = rir, true
	}
	if v := q.Get("quarter"); v != "" {
		qt, err := parseQuarter(strings.ToUpper(v))
		if err != nil {
			return f, fmt.Errorf("quarter %q: want YYYYQn", v)
		}
		f.quarter, f.hasQuarter = qt, true
	}
	return f, nil
}

// key is the canonical cache key for the filter (same filter, same key,
// regardless of parameter spelling or order).
func (f priceFilter) key() string {
	bits := ""
	if f.hasBits {
		bits = strconv.Itoa(f.bits)
	}
	region := ""
	if f.hasRIR {
		region = f.region.String()
	}
	quarter := ""
	if f.hasQuarter {
		quarter = f.quarter.String()
	}
	return "prices|bits=" + bits + "|region=" + region + "|quarter=" + quarter
}

func (f priceFilter) empty() bool {
	return !f.hasBits && !f.hasRIR && !f.hasQuarter
}

// match reports whether cell c passes every parameter f sets.
func (f priceFilter) match(c market.PriceCell) bool {
	if f.hasBits && c.Bits != f.bits {
		return false
	}
	if f.hasRIR && c.Region != f.region {
		return false
	}
	if f.hasQuarter && c.Quarter != f.quarter {
		return false
	}
	return true
}

// handlePrices serves /v1/prices. Unfiltered requests hit the snapshot's
// pre-encoded artifact; filtered ones are rendered from the price
// table's pre-encoded rows once per snapshot generation through the
// singleflight query cache.
func (s *Server) handlePrices(w http.ResponseWriter, r *http.Request) {
	q := queryOf(r)
	f, err := parsePriceFilter(q)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if rejectPinnedFilter(w, q, !f.empty()) {
		return
	}
	if f.empty() {
		s.serveStatic(w, r, q, "prices")
		return
	}
	st := s.current()
	art, err := st.cache.do(f.key(), s.metrics, func() (*artifact, error) {
		return st.snap.prices.render(f), nil
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.serveArtifact(w, r, q, art, true)
}

// handleDelegations serves /v1/delegations: without a prefix parameter,
// the snapshot's pre-encoded summary; with one, the delegation index's
// lookup (exact, covering, covered) rendered through the query cache.
func (s *Server) handleDelegations(w http.ResponseWriter, r *http.Request) {
	q := queryOf(r)
	raw := q.Get("prefix")
	if rejectPinnedFilter(w, q, raw != "") {
		return
	}
	if raw == "" {
		s.serveStatic(w, r, q, "delegations")
		return
	}
	p, err := netblock.ParsePrefix(raw)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("prefix %q: %v", raw, err))
		return
	}
	st := s.current()
	key := "delegations|prefix=" + p.String()
	art, err := st.cache.do(key, s.metrics, func() (*artifact, error) {
		lk := st.snap.Delegations.Lookup(p)
		view := delegationLookupView{
			Prefix:   p.String(),
			Date:     fmtDate(st.snap.Delegations.Date()),
			Exact:    viewDelegations(lk.Exact),
			Covering: viewDelegations(lk.Covering),
			Covered:  viewDelegations(lk.Covered),
		}
		return newArtifact(view, nil)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.serveArtifact(w, r, q, art, true)
}

// handleScenarios serves GET /v1/scenarios: the scenario matrix this
// deployment exposes, as listed by the Options.ScenarioList hook.
func (s *Server) handleScenarios(w http.ResponseWriter, _ *http.Request) {
	if s.opts.ScenarioList == nil {
		writeError(w, http.StatusNotFound, "no scenario listing on this server")
		return
	}
	writeJSON(w, http.StatusOK, s.opts.ScenarioList())
}

// handleHealthz is the liveness probe: the process is up.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is the readiness probe: a snapshot is being served and
// the configured ReadyCheck (if any) passes. A failing check answers
// 503 so routers drain this node — the snapshot identity fields stay in
// the body either way, so an operator can see what the node *would*
// serve while it is out of rotation.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	snap := s.Snapshot()
	doc := map[string]any{
		"status":      "ready",
		"seq":         snap.Seq,
		"seed":        snap.Cfg.Seed,
		"built_at":    snap.BuiltAt.UTC().Format(time.RFC3339),
		"age_seconds": snap.Age(time.Now()).Seconds(),
	}
	if s.opts.ReadyCheck != nil {
		if err := s.opts.ReadyCheck(); err != nil {
			doc["status"] = "unready"
			doc["reason"] = err.Error()
			writeJSON(w, http.StatusServiceUnavailable, doc)
			return
		}
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleVarz serves the counter document.
func (s *Server) handleVarz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.varz(time.Now()))
}

// handleRebuild triggers a background rebuild (POST /admin/rebuild,
// optional ?seed=N to reseed). It answers 202 immediately: the new
// snapshot swaps in when the build finishes, readers are never blocked.
func (s *Server) handleRebuild(w http.ResponseWriter, r *http.Request) {
	if s.opts.Follower {
		writeError(w, http.StatusConflict,
			"this server is a replication follower; rebuild on the leader instead")
		return
	}
	var (
		seed   int64
		reseed bool
	)
	if v := queryOf(r).Get("seed"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Sprintf("seed %q: %v", v, err))
			return
		}
		seed, reseed = n, true
	}
	if !s.RebuildAsync(s.rebuildConfig(seed, reseed)) {
		writeError(w, http.StatusConflict, "rebuild already in flight")
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{
		"status":      "rebuilding",
		"serving_seq": s.Snapshot().Seq,
	})
}
