package temporal

import (
	"sort"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// HolderState is who held a block at a point in time. Block is the indexed
// block the answer came from — the queried prefix itself or, when the query
// named something more specific, the longest indexed block covering it.
type HolderState struct {
	Block        netblock.Prefix
	Org          string
	RIR          registry.RIR
	Since        time.Time
	Until        time.Time // zero: still held at the epoch end
	Via          Acquisition
	PricePerAddr float64
}

// PointResult is the full as-of answer for one (prefix, date) pair.
type PointResult struct {
	Prefix netblock.Prefix
	Date   time.Time
	Holder *HolderState // nil: no indexed block covered the prefix at Date

	// Delegations active at Date, relative to the queried prefix.
	Exact    []DelegationSpan // child == prefix
	Covering []DelegationSpan // child strictly covers prefix
	Covered  []DelegationSpan // child strictly inside prefix
}

// TimelineResult is the full history of one prefix: every holding span of
// the matched block and every delegation span touching the prefix.
type TimelineResult struct {
	Prefix      netblock.Prefix
	Block       netblock.Prefix // matched indexed block; zero if none
	Holders     []Span
	Delegations []DelegationSpan // child equal to, inside, or covering Prefix
}

// At answers the point-in-time query: the holder, and the delegation state,
// of prefix p on date d. The caller is responsible for d being inside
// [Start, End) — out-of-range dates simply answer as empty state.
func (ix *Index) At(p netblock.Prefix, d time.Time) PointResult {
	return ix.at(p, d, nil)
}

// at is At with an optional probe hook, called once per binary-search step,
// per trie lookup or entry, and per distinct covered child. Tests count
// probes to prove lookups stay logarithmic in the event count; production
// passes nil.
func (ix *Index) at(p netblock.Prefix, d time.Time, probe func()) PointResult {
	d = day(d)
	res := PointResult{Prefix: p, Date: d}

	block, rng, ok := ix.holderRange(p, probe)
	if ok {
		if i := lastSpanStarting(ix.spans, rng, d, probe); i >= 0 {
			s := ix.spans[i]
			if s.ActiveOn(d) {
				res.Holder = &HolderState{
					Block: block, Org: s.Org, RIR: s.RIR,
					Since: s.Start, Until: s.End,
					Via: s.Via, PricePerAddr: s.PricePerAddr,
				}
			}
		}
	}

	if len(ix.delegs) > 0 {
		// Exact and covering: the whole-history trie's entries on the
		// path to p, filtered by date.
		for _, entry := range ix.delegTrie.Covering(p) {
			if probe != nil {
				probe()
			}
			for _, ds := range ix.delegs[entry.Value.lo:entry.Value.hi] {
				if !ds.ActiveOn(d) {
					continue
				}
				if entry.Prefix == p {
					res.Exact = append(res.Exact, ds)
				} else {
					res.Covering = append(res.Covering, ds)
				}
			}
		}
		// Children strictly inside p are exactly the ones sorting after p
		// up to the first that p does not cover.
		ids := ix.epochs[lastStartAtOrBefore(ix.epochStarts, d, probe)]
		i := sort.Search(len(ids), func(j int) bool {
			if probe != nil {
				probe()
			}
			return ix.delegs[ids[j]].Child.Compare(p) > 0
		})
		for ; i < len(ids); i++ {
			ds := ix.delegs[ids[i]]
			if !p.CoversStrictly(ds.Child) {
				break
			}
			if probe != nil && (i == 0 || ix.delegs[ids[i-1]].Child != ds.Child) {
				probe()
			}
			if ds.ActiveOn(d) {
				res.Covered = append(res.Covered, ds)
			}
		}
	}
	return res
}

// holderRange resolves p to the indexed block whose spans govern it: p
// itself when indexed, otherwise the longest indexed block covering p.
func (ix *Index) holderRange(p netblock.Prefix, probe func()) (netblock.Prefix, spanRange, bool) {
	if probe != nil {
		probe()
	}
	if rng, ok := ix.holderTrie.Get(p); ok {
		return p, rng, true
	}
	if probe != nil {
		probe()
	}
	block, rng, ok := ix.holderTrie.LongestMatch(p)
	return block, rng, ok
}

// lastSpanStarting binary-searches spans[rng.lo:rng.hi] (date-sorted by
// Start) for the last span starting on or before d; -1 if none. Because a
// prefix's spans tile time and the final span is open-ended, that span is
// always the holder at d: a same-day chain's zero-length spans all start on
// the same date, and "last starting on or before d" lands past them on the
// span that survived the day.
func lastSpanStarting(spans []Span, rng spanRange, d time.Time, probe func()) int {
	lo, hi := int(rng.lo), int(rng.hi)
	n := sort.Search(hi-lo, func(i int) bool {
		if probe != nil {
			probe()
		}
		return spans[lo+i].Start.After(d)
	})
	if n == 0 {
		return -1
	}
	return lo + n - 1
}

// Timeline answers the history query: every holding span of the block
// governing p, plus every delegation span whose child equals, covers, or
// sits inside p.
func (ix *Index) Timeline(p netblock.Prefix) TimelineResult {
	res := TimelineResult{Prefix: p}
	if block, rng, ok := ix.holderRange(p, nil); ok {
		res.Block = block
		res.Holders = append(res.Holders, ix.spans[rng.lo:rng.hi]...)
	}
	for _, entry := range ix.delegTrie.Covering(p) {
		if entry.Prefix == p {
			continue // CoveredBy below reports the exact child too
		}
		res.Delegations = append(res.Delegations, ix.delegs[entry.Value.lo:entry.Value.hi]...)
	}
	for _, entry := range ix.delegTrie.CoveredBy(p) {
		res.Delegations = append(res.Delegations, ix.delegs[entry.Value.lo:entry.Value.hi]...)
	}
	sort.SliceStable(res.Delegations, func(i, j int) bool {
		a, b := res.Delegations[i], res.Delegations[j]
		if c := a.Child.Compare(b.Child); c != 0 {
			return c < 0
		}
		return a.Start.Before(b.Start)
	})
	return res
}

// EventRange returns the positions [lo, hi) in the event stream of the
// events in the half-open window (from, to]: exactly the events that turn
// the world state at `from` into the state at `to` (At applies every
// event dated on or before its query date). lo <= hi always; an empty
// window, or one with to before from, answers lo == hi.
func (ix *Index) EventRange(from, to time.Time) (lo, hi int) {
	from, to = day(from), day(to)
	lo = sort.Search(len(ix.events), func(i int) bool { return ix.events[i].Date.After(from) })
	hi = sort.Search(len(ix.events), func(i int) bool { return ix.events[i].Date.After(to) })
	return lo, max(lo, hi)
}

// Event returns entry i of the merged, date-sorted event stream, for i in
// [0, EventCount()).
func (ix *Index) Event(i int) Event { return ix.events[i] }

// Diff returns the events in the half-open window (from, to], the range
// EventRange names, copied out of the index.
func (ix *Index) Diff(from, to time.Time) []Event {
	lo, hi := ix.EventRange(from, to)
	if lo == hi {
		return nil
	}
	return append([]Event(nil), ix.events[lo:hi]...)
}

// PriceContext returns the price state of the quarter containing d, and
// whether any transfers were executed in that quarter.
func (ix *Index) PriceContext(d time.Time) (QuarterPrices, bool) {
	q := stats.QuarterOf(day(d))
	i := sort.Search(len(ix.quarters), func(i int) bool {
		return !ix.quarters[i].Quarter.Before(q)
	})
	if i < len(ix.quarters) && ix.quarters[i].Quarter == q {
		return ix.quarters[i], true
	}
	return QuarterPrices{}, false
}

// NaiveAt is the reference implementation of At: a linear replay of the
// normalized event log, with no index structures. Property tests compare
// the index against it over every event boundary; it is exported so the
// serve layer's HTTP-level property test can reuse it.
func NaiveAt(in Input, p netblock.Prefix, d time.Time) PointResult {
	d = day(d)
	res := PointResult{Prefix: p, Date: d}

	// The governing block: the longest prefix with an allocation record
	// that equals or covers p (transfer prefixes always have one too).
	best, found := netblock.Prefix{}, false
	for _, a := range in.Allocations {
		if a.Prefix.Covers(p) && (!found || a.Prefix.Bits() > best.Bits()) {
			best, found = a.Prefix, true
		}
	}
	if found {
		res.Holder = naiveHolder(in, best, d)
	}

	for _, l := range in.Leases {
		if !l.activeOn(d) {
			continue
		}
		switch {
		case l.Child == p:
			res.Exact = append(res.Exact, DelegationSpan(l))
		case l.Child.Covers(p):
			res.Covering = append(res.Covering, DelegationSpan(l))
		case p.Covers(l.Child):
			res.Covered = append(res.Covered, DelegationSpan(l))
		}
	}
	return res
}

// activeOn mirrors DelegationSpan.ActiveOn for the input record form.
func (l LeaseRecord) activeOn(d time.Time) bool {
	return !d.Before(l.Start) && (l.End.IsZero() || d.Before(l.End))
}

// naiveHolder replays the transfer log for one block and reports its
// holder at d, or nil when the block was not yet held.
func naiveHolder(in Input, block netblock.Prefix, d time.Time) *HolderState {
	var alloc AllocationRecord
	for _, a := range in.Allocations {
		if a.Prefix == block {
			alloc = a
			break
		}
	}
	var chain []TransferRecord
	for _, t := range in.Transfers {
		if t.Prefix.Covers(block) {
			chain = append(chain, t)
		}
	}
	if len(chain) == 0 {
		if d.Before(alloc.Date) {
			return nil
		}
		return &HolderState{Block: block, Org: alloc.Org, RIR: alloc.RIR, Since: alloc.Date, Via: ViaOrigin}
	}
	// Replay: start from the first sender (held since the epoch start),
	// apply every transfer dated on or before d in log order.
	h := &HolderState{Block: block, Org: chain[0].From, RIR: chain[0].FromRIR, Since: in.Start, Via: ViaOrigin}
	h.Until = chain[0].Date
	for i, t := range chain {
		if t.Date.After(d) {
			break
		}
		h = &HolderState{
			Block: block, Org: t.To, RIR: t.ToRIR, Since: t.Date,
			Via: viaOf(t.Type), PricePerAddr: t.PricePerAddr,
		}
		if i+1 < len(chain) {
			h.Until = chain[i+1].Date
		}
	}
	if d.Before(h.Since) {
		return nil // before the epoch start can't happen; defensive
	}
	return h
}
