package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"

	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// This file is the time-travel surface over the durable store:
// GET /v1/history lists persisted generations, and a ?gen=N query
// parameter on the artifact endpoints pins a read to a past generation,
// served with the stored bodies and ETags (so conditional requests keep
// their 304 semantics across restarts and rebuilds).

// historyGeneration is one generation in the /v1/history document.
type historyGeneration struct {
	Gen          uint64      `json:"gen"`
	BuiltAt      string      `json:"built_at"`
	Seed         int64       `json:"seed"`
	NumLIRs      int         `json:"num_lirs"`
	RoutingDays  int         `json:"routing_days"`
	BuildSeconds float64     `json:"build_seconds"`
	Workers      int         `json:"workers"`
	Stages       []varzStage `json:"stages,omitempty"`
	Transfers    int         `json:"transfers"`
	Bytes        int64       `json:"bytes"`
}

// historyView is the /v1/history document: every live generation in
// ascending ID order, plus which generation is being served right now.
type historyView struct {
	ServingGen    uint64              `json:"serving_gen"`
	ServingSource string              `json:"serving_source"`
	Generations   []historyGeneration `json:"generations"`
}

// handleHistory serves GET /v1/history from the store's manifest. It is
// intentionally not cached: the store is tiny to list, and the document
// must reflect compaction immediately.
func (s *Server) handleHistory(w http.ResponseWriter, _ *http.Request) {
	if s.opts.Store == nil {
		writeError(w, http.StatusNotFound, "no durable store configured (-data-dir)")
		return
	}
	snap := s.Snapshot()
	view := historyView{ServingGen: snap.Gen, ServingSource: string(snap.Source)}
	for _, g := range s.opts.Store.Generations() {
		hg := historyGeneration{
			Gen:          g.Gen,
			BuiltAt:      g.Created.UTC().Format(time.RFC3339),
			Seed:         g.Seed,
			NumLIRs:      g.NumLIRs,
			RoutingDays:  g.RoutingDays,
			BuildSeconds: time.Duration(g.BuildNS).Seconds(),
			Workers:      g.Workers,
			Transfers:    g.Transfers,
			Bytes:        g.Bytes,
		}
		for _, st := range g.Stages {
			hg.Stages = append(hg.Stages, varzStage{Name: st.Name, Seconds: time.Duration(st.NS).Seconds()})
		}
		view.Generations = append(view.Generations, hg)
	}
	writeJSON(w, http.StatusOK, view)
}

// pinnedGen is one past generation decoded for ?gen= reads: the static
// artifact map, plus the restored temporal index behind pinned /v1/asof
// queries and its event-row table (both nil for generations persisted
// before as-of serving existed — those answer 404 on asof, never a nil
// dereference).
type pinnedGen struct {
	static    map[string]*artifact
	temporal  *temporal.Index
	eventRows *eventRows
}

// genCache keeps recently loaded past generations decoded in memory so
// pinned reads do not re-read and re-verify a segment file on every
// request. Entries are evicted FIFO at a small cap; a generation
// compacted out of the store simply ages out of here.
type genCache struct {
	mu      sync.Mutex
	entries map[uint64]*pinnedGen
	order   []uint64
	max     int
}

func newGenCache(max int) *genCache {
	return &genCache{entries: make(map[uint64]*pinnedGen), max: max}
}

// get returns the decoded generation, loading it through load on a miss.
// Concurrent misses for the same generation may load twice; the loads are
// idempotent and the duplicate is dropped.
func (c *genCache) get(gen uint64, load func() (*pinnedGen, error)) (*pinnedGen, error) {
	c.mu.Lock()
	if pg, ok := c.entries[gen]; ok {
		c.mu.Unlock()
		return pg, nil
	}
	c.mu.Unlock()

	pg, err := load()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.entries[gen]; !ok {
		for len(c.entries) >= c.max && len(c.order) > 0 {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
		}
		c.entries[gen] = pg
		c.order = append(c.order, gen)
	}
	return c.entries[gen], nil
}

// pinnedGenerations is how many past generations' artifact maps the
// server keeps decoded in memory for ?gen= reads.
const pinnedGenerations = 4

// errNoStore distinguishes "gen= used without a store" from a bad value.
var errNoStore = errors.New("no durable store configured (-data-dir)")

// pinnedGen resolves a pinned generation, hitting the current snapshot
// when the pin names it and the gen cache (backed by store.Load)
// otherwise.
func (s *Server) pinnedGen(gen uint64) (*pinnedGen, error) {
	snap := s.Snapshot()
	if snap.Gen == gen && snap.Gen != 0 {
		return &pinnedGen{static: snap.static, temporal: snap.Temporal, eventRows: snap.eventRows}, nil
	}
	if s.opts.Store == nil {
		return nil, errNoStore
	}
	return s.gens.get(gen, func() (*pinnedGen, error) {
		_, arts, err := s.opts.Store.Load(gen)
		if err != nil {
			return nil, err
		}
		static, aux, err := assembleArtifacts(arts)
		if err != nil {
			return nil, err
		}
		pg := &pinnedGen{static: static}
		if data, ok := aux[stateTemporal]; ok {
			if pg.temporal, err = temporal.Restore(data); err != nil {
				return nil, fmt.Errorf("serve: generation %d: restore temporal index: %w", gen, err)
			}
			pg.eventRows = newEventRows(pg.temporal)
		}
		return pg, nil
	})
}

// pinnedArtifacts resolves the artifact map for a pinned generation.
func (s *Server) pinnedArtifacts(gen uint64) (map[string]*artifact, error) {
	pg, err := s.pinnedGen(gen)
	if err != nil {
		return nil, err
	}
	return pg.static, nil
}

// artifactForRequest resolves the artifact to serve for key, honoring a
// ?gen=N pin, along with the artifactRef naming its persisted frame
// (gen 0 when the snapshot was never persisted — serveArtifact then
// uses the in-memory body). q is the request's parsed query (queryOf).
// The boolean is false after an error response has already been
// written.
func (s *Server) artifactForRequest(w http.ResponseWriter, q url.Values, key string) (*artifact, artifactRef, bool) {
	raw := q.Get("gen")
	if raw == "" {
		snap := s.current().snap
		art, ok := snap.staticArtifact(key)
		if !ok {
			writeError(w, http.StatusNotFound, "unknown artifact "+key)
			return nil, artifactRef{}, false
		}
		return art, artifactRef{key: key, gen: snap.Gen}, true
	}
	gen, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || gen == 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("gen %q: want a positive generation ID", raw))
		return nil, artifactRef{}, false
	}
	arts, err := s.pinnedArtifacts(gen)
	switch {
	case errors.Is(err, errNoStore):
		writeError(w, http.StatusNotFound, errNoStore.Error())
		return nil, artifactRef{}, false
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Sprintf("generation %d not in store (compacted or never persisted)", gen))
		return nil, artifactRef{}, false
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, artifactRef{}, false
	}
	art, ok := arts[key]
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("generation %d has no artifact %q", gen, key))
		return nil, artifactRef{}, false
	}
	return art, artifactRef{key: key, gen: gen}, true
}

// rejectPinnedFilter answers 400 for query combinations that cannot be
// generation-pinned (filters are computed from live snapshot state, not
// stored bytes). It reports whether the request was rejected.
func rejectPinnedFilter(w http.ResponseWriter, q url.Values, filtered bool) bool {
	if filtered && q.Get("gen") != "" {
		writeError(w, http.StatusBadRequest, "gen= pins stored artifacts only; it cannot be combined with filter parameters")
		return true
	}
	return false
}
