package serve

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"ipv4market/internal/store"
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

// pinnedGenerations is how many past generations the server keeps
// loaded in memory for ?gen= reads, so pinned reads do not re-read and
// re-verify a segment file on every request. At the cap an arbitrary
// one is evicted, so a generation compacted out of the store leaves
// the memo in time.
const pinnedGenerations = 4

// snapshotForRequest resolves the snapshot a request reads, honoring a
// ?gen=N pin: the served snapshot when the request names no generation
// or names the one being served, otherwise the pinned generation from
// the gens memo (loaded through loadSnapshot on a miss; concurrent
// misses for one generation load it once). q is the request's parsed
// query (queryOf). The boolean is false after an error response has
// already been written.
func (s *Server) snapshotForRequest(w http.ResponseWriter, q url.Values) (*Snapshot, bool) {
	snap := s.current().snap
	raw := q.Get("gen")
	if raw == "" {
		return snap, true
	}
	gen, err := strconv.ParseUint(raw, 10, 64)
	if err != nil || gen == 0 {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("gen %q: want a positive generation ID", raw))
		return nil, false
	}
	if snap.Gen == gen {
		return snap, true
	}
	if s.opts.Store == nil {
		writeError(w, http.StatusNotFound, "no durable store configured (-data-dir)")
		return nil, false
	}
	snap, err = s.gens.do(gen, nil, func() (*Snapshot, error) { return s.loadSnapshot(gen) })
	switch {
	case errors.Is(err, store.ErrNotFound):
		writeError(w, http.StatusNotFound, fmt.Sprintf("generation %d not in store (compacted or never persisted)", gen))
		return nil, false
	case err != nil:
		writeError(w, http.StatusInternalServerError, err.Error())
		return nil, false
	}
	return snap, true
}

// serveStatic serves the pre-encoded artifact for key from the snapshot
// the request resolves to, with its stored body and ETag.
func (s *Server) serveStatic(w http.ResponseWriter, r *http.Request, q url.Values, key string) {
	snap, ok := s.snapshotForRequest(w, q)
	if !ok {
		return
	}
	art, ok := snap.staticArtifact(key)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("generation %d has no artifact %q", snap.Gen, key))
		return
	}
	s.serveArtifact(w, r, q, art, false)
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
