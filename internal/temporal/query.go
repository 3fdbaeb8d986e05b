package temporal

import (
	"slices"
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
// per parent link followed, and per distinct covered child. Tests count
// probes to prove lookups stay logarithmic in the event count; production
// passes nil.
func (ix *Index) at(p netblock.Prefix, d time.Time, probe func()) PointResult {
	res := PointResult{Prefix: p, Date: day(d)}
	dn := queryDay(d)

	if b := ix.blocks.lookup(p, probe); b >= 0 {
		// The last span starting on or before d. Because a block's spans
		// tile time and the final span is open-ended, that span is always
		// the holder at d: a same-day chain's zero-length spans all start
		// on the same date, and "last starting on or before d" lands past
		// them on the span that survived the day.
		chain := ix.chain(b)
		n := sort.Search(len(chain)+1, func(j int) bool {
			if probe != nil {
				probe()
			}
			return ix.spanStart(b, chain, j) > dn
		})
		if j := n - 1; j >= 0 {
			if end := ix.spanEnd(chain, j); end == zeroDay || dn < end {
				s := ix.span(b, chain, j)
				res.Holder = &HolderState{
					Block: s.Prefix, Org: s.Org, RIR: s.RIR,
					Since: s.Start, Until: s.End,
					Via: s.Via, PricePerAddr: s.PricePerAddr,
				}
			}
		}
	}

	if len(ix.leases) > 0 {
		// Exact and covering: the children covering p, filtered by date.
		var buf [33]int32
		for _, g := range ix.coveringChildren(&buf, p, probe) {
			exact := ix.children.prefixes[g] == p
			for i := ix.childLo[g]; i < ix.childLo[g+1]; i++ {
				l := &ix.leases[i]
				if !l.activeOn(dn) {
					continue
				}
				if exact {
					res.Exact = append(res.Exact, delegation(l))
				} else {
					res.Covering = append(res.Covering, delegation(l))
				}
			}
		}
		// Children strictly inside p are exactly the ones sorting after p
		// up to the first that p does not cover.
		e := lastStartAtOrBefore(ix.epochStarts, dn, probe)
		ids := ix.epochIDs[ix.epochLo[e]:ix.epochLo[e+1]]
		i := sort.Search(len(ids), func(j int) bool {
			if probe != nil {
				probe()
			}
			return ix.leases[ids[j]].child.Compare(p) > 0
		})
		for ; i < len(ids); i++ {
			l := &ix.leases[ids[i]]
			if !p.CoversStrictly(l.child) {
				break
			}
			if probe != nil && (i == 0 || ix.leases[ids[i-1]].child != l.child) {
				probe()
			}
			if l.activeOn(dn) {
				res.Covered = append(res.Covered, delegation(l))
			}
		}
	}
	return res
}

// Timeline answers the history query: every holding span of the block
// governing p, plus every delegation span whose child equals, covers, or
// sits inside p, ordered by child and then start.
func (ix *Index) Timeline(p netblock.Prefix) TimelineResult {
	res := TimelineResult{Prefix: p}
	if b := ix.blocks.lookup(p, nil); b >= 0 {
		chain := ix.chain(b)
		res.Block = ix.blocks.prefixes[b]
		res.Holders = make([]Span, len(chain)+1)
		for j := range res.Holders {
			res.Holders[j] = ix.span(b, chain, j)
		}
	}

	// The children strictly covering p sort before it; the children p
	// covers are the run sorting from p on. Rows are in child order, and
	// within a child in start order, so the children's rows, visited in
	// child order, are the answer's order.
	var buf [33]int32
	for _, g := range ix.coveringChildren(&buf, p, nil) {
		if ix.children.prefixes[g] != p {
			res.Delegations = ix.appendDelegations(res.Delegations, ix.childLo[g], ix.childLo[g+1])
		}
	}
	inside := ix.children.prefixes
	lo, _ := slices.BinarySearchFunc(inside, p, netblock.Prefix.Compare)
	hi := lo
	for hi < len(inside) && p.Covers(inside[hi]) {
		hi++
	}
	res.Delegations = ix.appendDelegations(res.Delegations, ix.childLo[lo], ix.childLo[hi])
	return res
}

// coveringChildren returns the delegation children covering p, p
// included, root first, in buf: a chain of nested prefixes holds at
// most one of each length. probe is lookup's.
func (ix *Index) coveringChildren(buf *[33]int32, p netblock.Prefix, probe func()) []int32 {
	n := len(buf)
	for g := ix.children.lookup(p, probe); g >= 0; g = ix.children.parent[g] {
		if probe != nil {
			probe()
		}
		n--
		buf[n] = g
	}
	return buf[n:]
}

// appendDelegations appends lease rows [lo, hi) as delegation spans.
func (ix *Index) appendDelegations(out []DelegationSpan, lo, hi int32) []DelegationSpan {
	for i := lo; i < hi; i++ {
		out = append(out, delegation(&ix.leases[i]))
	}
	return out
}

// EventRange returns the positions [lo, hi) in the event stream of the
// events in the half-open window (from, to]: exactly the events that turn
// the world state at `from` into the state at `to` (At applies every
// event dated on or before its query date). lo <= hi always; an empty
// window, or one with to before from, answers lo == hi.
func (ix *Index) EventRange(from, to time.Time) (lo, hi int) {
	f, t := queryDay(from), queryDay(to)
	lo = sort.Search(len(ix.events), func(i int) bool { return ix.eventDay(ix.events[i]) > f })
	hi = sort.Search(len(ix.events), func(i int) bool { return ix.eventDay(ix.events[i]) > t })
	return lo, max(lo, hi)
}

// Event returns entry i of the merged, date-sorted event stream, for i in
// [0, EventCount()).
func (ix *Index) Event(i int) Event { return ix.event(ix.events[i]) }

// Diff returns the events in the half-open window (from, to], the range
// EventRange names, rendered from the index.
func (ix *Index) Diff(from, to time.Time) []Event {
	lo, hi := ix.EventRange(from, to)
	if lo == hi {
		return nil
	}
	out := make([]Event, hi-lo)
	for i, r := range ix.events[lo:hi] {
		out[i] = ix.event(r)
	}
	return out
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
