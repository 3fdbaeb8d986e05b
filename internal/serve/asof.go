package serve

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/simulation"
	"ipv4market/internal/stats"
	"ipv4market/internal/temporal"
)

// This file is the point-in-time query surface: GET /v1/asof answers "who
// held prefix P on date D" (with the delegation and price context around
// it), /v1/asof/timeline the full history of one prefix, and /v1/asof/diff
// the events between two dates. All three are computed from the snapshot's
// temporal index — rebuilt on cold builds, restored byte-identically from
// the _state/temporal artifact on warm starts — and, with ?gen=N, from the
// temporal state of a persisted past generation. Point and timeline
// responses are cached per (generation, query) in the singleflight query
// cache; diff responses are concatenated from the generation's event-row
// table (eventrows.go) instead, since their keys, two dates, almost never
// repeat. All are served with strong ETags, so conditional requests get
// 304s like any artifact.

// temporalInput maps a simulated world to the temporal event model: the
// registry's final allocations and its transfer log (in execution order),
// plus every lease observed in the routing window, with day indexes
// resolved to calendar dates. Every slice is allocated once at its final
// length, and the transfer log is read in place rather than copied.
func temporalInput(cfg simulation.Config, w *simulation.World) temporal.Input {
	allocs := w.Registry.Allocations()
	in := temporal.Input{
		Start:       cfg.HistoryStart,
		End:         cfg.MarketEnd,
		Allocations: make([]temporal.AllocationRecord, len(allocs)),
		Transfers:   make([]temporal.TransferRecord, w.Registry.NumTransfers()),
		Leases:      make([]temporal.LeaseRecord, len(w.Leases)),
	}
	for i, a := range allocs {
		in.Allocations[i] = temporal.AllocationRecord{
			Prefix: a.Prefix, Org: string(a.Org), RIR: a.RIR, Date: a.Date, Status: string(a.Status),
		}
	}
	for i := range in.Transfers {
		tr := w.Registry.TransferAt(i)
		in.Transfers[i] = temporal.TransferRecord{
			Prefix: tr.Prefix, From: string(tr.From), To: string(tr.To),
			FromRIR: tr.FromRIR, ToRIR: tr.ToRIR, Type: string(tr.Type),
			Date: tr.Date, PricePerAddr: tr.PricePerAddr,
		}
	}
	for i, l := range w.Leases {
		in.Leases[i] = temporal.LeaseRecord{
			Parent: l.Parent, Child: l.Child,
			FromAS: uint32(l.Provider.PrimaryAS()), ToAS: uint32(l.Customer.PrimaryAS()),
			Start: cfg.RoutingStart.AddDate(0, 0, l.StartDay),
			End:   cfg.RoutingStart.AddDate(0, 0, l.EndDay),
		}
	}
	return in
}

// parseAsofDate validates a date parameter against the index's epoch:
// malformed dates name the accepted format, well-formed dates outside
// [Start, End) name the range they missed.
func parseAsofDate(ix *temporal.Index, name, raw string) (time.Time, error) {
	d, err := time.ParseInLocation("2006-01-02", raw, time.UTC)
	if err != nil {
		return time.Time{}, fmt.Errorf("%s %q: want YYYY-MM-DD", name, raw)
	}
	if !ix.Contains(d) {
		return time.Time{}, fmt.Errorf("%s %s: outside the indexed epoch [%s, %s)",
			name, raw, fmtDate(ix.Start()), fmtDate(ix.End()))
	}
	return d, nil
}

// asofHolderView is the holder half of a point answer. Block is the indexed
// block the answer came from — the queried prefix, or the longest indexed
// block covering it when the query named something more specific.
type asofHolderView struct {
	Block        string  `json:"block"`
	Org          string  `json:"org"`
	RIR          string  `json:"rir"`
	Since        string  `json:"since"`
	Until        string  `json:"until,omitempty"` // absent: still held at the epoch end
	Via          string  `json:"via"`
	PricePerAddr float64 `json:"price_per_addr,omitempty"`
	// MarketPhase is the holder RIR's policy phase on the queried date
	// (free pool, down to last /8, depleted) — the context the paper reads
	// transfer activity against.
	MarketPhase string `json:"market_phase"`
}

// asofDelegationView is one delegation span.
type asofDelegationView struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	FromAS uint32 `json:"from_as"`
	ToAS   uint32 `json:"to_as"`
	Start  string `json:"start"`
	End    string `json:"end,omitempty"` // absent: open at the epoch end
}

// asofPriceView is the price context of the queried date: the containing
// quarter's transfer-market aggregate plus the model's smooth price level.
type asofPriceView struct {
	Quarter    string  `json:"quarter"`
	Transfers  int     `json:"transfers"`
	Priced     int     `json:"priced"`
	Addresses  uint64  `json:"addresses"`
	MeanPrice  float64 `json:"mean_price,omitempty"`
	MinPrice   float64 `json:"min_price,omitempty"`
	MaxPrice   float64 `json:"max_price,omitempty"`
	PriceLevel float64 `json:"price_level"`
}

// asofView is the GET /v1/asof document.
type asofView struct {
	Prefix string `json:"prefix"`
	Date   string `json:"date"`
	Gen    uint64 `json:"gen,omitempty"`

	// Holder is null when no indexed block covered the prefix on the date
	// (never allocated, or allocated later).
	Holder *asofHolderView `json:"holder"`

	Exact    []asofDelegationView `json:"delegations_exact,omitempty"`
	Covering []asofDelegationView `json:"delegations_covering,omitempty"`
	Covered  []asofDelegationView `json:"delegations_covered,omitempty"`

	Prices *asofPriceView `json:"prices,omitempty"`
}

// asofSpanView is one holding span on a timeline.
type asofSpanView struct {
	Org          string  `json:"org"`
	RIR          string  `json:"rir"`
	Start        string  `json:"start"`
	End          string  `json:"end,omitempty"`
	Via          string  `json:"via"`
	PricePerAddr float64 `json:"price_per_addr,omitempty"`
}

// asofTimelineView is the GET /v1/asof/timeline document.
type asofTimelineView struct {
	Prefix     string `json:"prefix"`
	Block      string `json:"block,omitempty"` // indexed block answered from
	EpochStart string `json:"epoch_start"`
	EpochEnd   string `json:"epoch_end"`

	Holders     []asofSpanView       `json:"holders,omitempty"`
	Delegations []asofDelegationView `json:"delegations,omitempty"`
}

// asofEventView is one event in a diff window, the element of the
// document's events array. Only the fields for the event's kind are
// present.
type asofEventView struct {
	Date   string `json:"date"`
	Kind   string `json:"kind"`
	Prefix string `json:"prefix"`

	From         string  `json:"from,omitempty"`
	To           string  `json:"to,omitempty"`
	FromRIR      string  `json:"from_rir,omitempty"`
	ToRIR        string  `json:"to_rir,omitempty"`
	Type         string  `json:"type,omitempty"`
	PricePerAddr float64 `json:"price_per_addr,omitempty"`

	Parent string `json:"parent,omitempty"`
	FromAS uint32 `json:"from_as,omitempty"`
	ToAS   uint32 `json:"to_as,omitempty"`
}

// viewAsofDelegations renders delegation spans.
func viewAsofDelegations(spans []temporal.DelegationSpan) []asofDelegationView {
	out := make([]asofDelegationView, 0, len(spans))
	for _, ds := range spans {
		v := asofDelegationView{
			Parent: ds.Parent.String(), Child: ds.Child.String(),
			FromAS: ds.FromAS, ToAS: ds.ToAS,
			Start: fmtDate(ds.Start),
		}
		if !ds.End.IsZero() {
			v.End = fmtDate(ds.End)
		}
		out = append(out, v)
	}
	return out
}

// viewAsofPoint renders one point-in-time answer.
func viewAsofPoint(ix *temporal.Index, gen uint64, p netblock.Prefix, d time.Time) asofView {
	res := ix.At(p, d)
	view := asofView{
		Prefix: p.String(),
		Date:   fmtDate(d),
		Gen:    gen,
	}
	if h := res.Holder; h != nil {
		hv := &asofHolderView{
			Block: h.Block.String(), Org: h.Org, RIR: h.RIR.String(),
			Since: fmtDate(h.Since), Via: string(h.Via),
			PricePerAddr: h.PricePerAddr,
			MarketPhase:  registry.PhaseAt(h.RIR, d).String(),
		}
		if !h.Until.IsZero() {
			hv.Until = fmtDate(h.Until)
		}
		view.Holder = hv
	}
	view.Exact = viewAsofDelegations(res.Exact)
	view.Covering = viewAsofDelegations(res.Covering)
	view.Covered = viewAsofDelegations(res.Covered)

	pv := &asofPriceView{PriceLevel: simulation.PriceLevel(d)}
	if qp, ok := ix.PriceContext(d); ok {
		pv.Quarter = qp.Quarter.String()
		pv.Transfers = qp.Transfers
		pv.Priced = qp.Priced
		pv.Addresses = qp.Addresses
		pv.MeanPrice = qp.MeanPrice
		pv.MinPrice = qp.MinPrice
		pv.MaxPrice = qp.MaxPrice
	} else {
		// Quarter with no recorded transfer activity: name it anyway so the
		// consumer sees which quarter the zeros describe.
		pv.Quarter = stats.QuarterOf(d).String()
	}
	view.Prices = pv
	return view
}

// handleAsof serves GET /v1/asof?date=YYYY-MM-DD&prefix=P: the holder,
// delegation state and price context of one prefix on one date.
func (s *Server) handleAsof(w http.ResponseWriter, r *http.Request) {
	q := queryOf(r)
	snap, ok := s.snapshotForRequest(w, q)
	if !ok {
		return
	}
	ix, gen := snap.Temporal, snap.Gen
	rawDate, rawPrefix := q.Get("date"), q.Get("prefix")
	if rawDate == "" || rawPrefix == "" {
		writeError(w, http.StatusBadRequest, "asof requires date=YYYY-MM-DD and prefix=<CIDR> parameters")
		return
	}
	d, err := parseAsofDate(ix, "date", rawDate)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	p, err := netblock.ParsePrefix(rawPrefix)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("prefix %q: %v", rawPrefix, err))
		return
	}
	st := s.current()
	key := "asof|gen=" + strconv.FormatUint(gen, 10) + "|date=" + fmtDate(d) + "|prefix=" + p.String()
	art, err := st.cache.do(key, s.metrics, func() (*artifact, error) {
		return newArtifact(viewAsofPoint(ix, gen, p, d), nil)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.serveArtifact(w, r, q, art, true)
}

// handleAsofTimeline serves GET /v1/asof/timeline?prefix=P: every holding
// span of the block governing P and every delegation span touching P.
func (s *Server) handleAsofTimeline(w http.ResponseWriter, r *http.Request) {
	q := queryOf(r)
	snap, ok := s.snapshotForRequest(w, q)
	if !ok {
		return
	}
	ix, gen := snap.Temporal, snap.Gen
	rawPrefix := q.Get("prefix")
	if rawPrefix == "" {
		writeError(w, http.StatusBadRequest, "asof timeline requires a prefix=<CIDR> parameter")
		return
	}
	p, err := netblock.ParsePrefix(rawPrefix)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("prefix %q: %v", rawPrefix, err))
		return
	}
	st := s.current()
	key := "asof_timeline|gen=" + strconv.FormatUint(gen, 10) + "|prefix=" + p.String()
	art, err := st.cache.do(key, s.metrics, func() (*artifact, error) {
		tl := ix.Timeline(p)
		view := asofTimelineView{
			Prefix:     p.String(),
			EpochStart: fmtDate(ix.Start()),
			EpochEnd:   fmtDate(ix.End()),
		}
		if tl.Block != (netblock.Prefix{}) {
			view.Block = tl.Block.String()
		}
		for _, sp := range tl.Holders {
			sv := asofSpanView{
				Org: sp.Org, RIR: sp.RIR.String(),
				Start: fmtDate(sp.Start), Via: string(sp.Via),
				PricePerAddr: sp.PricePerAddr,
			}
			if !sp.End.IsZero() {
				sv.End = fmtDate(sp.End)
			}
			view.Holders = append(view.Holders, sv)
		}
		view.Delegations = viewAsofDelegations(tl.Delegations)
		return newArtifact(view, nil)
	})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.serveArtifact(w, r, q, art, true)
}

// handleAsofDiff serves GET /v1/asof/diff?from=D1&to=D2: the events in the
// half-open window (from, to], assembled from the generation's rendered
// event rows. Diffs bypass the query cache: their keys almost never
// repeat, and a whole-epoch body would count as one entry however large.
func (s *Server) handleAsofDiff(w http.ResponseWriter, r *http.Request) {
	q := queryOf(r)
	snap, ok := s.snapshotForRequest(w, q)
	if !ok {
		return
	}
	ix := snap.Temporal
	rawFrom, rawTo := q.Get("from"), q.Get("to")
	if rawFrom == "" || rawTo == "" {
		writeError(w, http.StatusBadRequest, "asof diff requires from=YYYY-MM-DD and to=YYYY-MM-DD parameters")
		return
	}
	from, err := parseAsofDate(ix, "from", rawFrom)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	to, err := parseAsofDate(ix, "to", rawTo)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if to.Before(from) {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("from %s is after to %s", fmtDate(from), fmtDate(to)))
		return
	}
	art, err := snap.eventRows.diff(snap.Gen, from, to)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.serveArtifact(w, r, q, art, true)
}
