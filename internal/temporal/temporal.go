// Package temporal materializes the study's event history — delegations,
// transfers, holder changes, and quarterly price state — into an immutable,
// date-indexed temporal index, so "who held prefix P on date D" (and the
// delegation and price context around it) answers in O(log) of the event
// count instead of a replay of the event log.
//
// The index is built once from a normalized event Input by New, never
// mutated afterwards, and is byte-deterministic: the same Input always
// yields the same Record() bytes and the same query answers, regardless of
// build parallelism, map iteration order, or the machine. Restore(Record())
// reproduces the index exactly, which is what lets warm starts and
// replication followers answer /v1/asof byte-identically to the builder.
//
// Layout (see ARCHITECTURE.md §9): holding spans are grouped per prefix in
// one contiguous date-sorted slice — each prefix owns a half-open range of
// that slice, found by trie lookup and binary-searched by date (the
// interval-tree role; spans of one prefix tile time, so "last span starting
// on or before D" is the holder at D). Delegation spans sit in one slice
// sorted by child prefix, and one whole-history trie maps each child to
// its range of that slice: exact and covering delegations are a trie walk
// filtered by date. For covered delegations the time axis is partitioned
// into epochs whose boundaries are drawn from delegation start/end dates;
// a date binary-searches to its epoch, and each epoch is an ascending list
// of the indexes of the spans overlapping it — sorted by child, so the
// children strictly inside a prefix are one contiguous run, found by
// binary search.
package temporal

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// Acquisition says how a holder came to hold a block.
type Acquisition string

// Acquisition kinds. ViaOrigin covers RIR delegation and legacy holdings
// (and the reconstructed pre-first-transfer holder, whose original
// delegation date the registry no longer carries once a transfer has
// rewritten the allocation record).
const (
	ViaOrigin Acquisition = "origin"
	ViaMarket Acquisition = "market"
	ViaMerger Acquisition = "merger"
)

// AllocationRecord is the final registry state of one block: who holds it
// now and since when. Together with the transfer chain for the same prefix
// it determines the block's whole holding history.
type AllocationRecord struct {
	Prefix netblock.Prefix
	Org    string
	RIR    registry.RIR
	Date   time.Time
	Status string
}

// TransferRecord is one completed transfer from the registry's log.
// Records for the same prefix must appear in execution order; same-day
// chains (A→B→C on one date) rely on it.
type TransferRecord struct {
	Prefix       netblock.Prefix
	From, To     string
	FromRIR      registry.RIR
	ToRIR        registry.RIR
	Type         string
	Date         time.Time
	PricePerAddr float64
}

// LeaseRecord is one delegation span observed in the routing/whois window:
// the provider block, the delegated child, and the AS pair. [Start, End) —
// a zero End means the delegation was still active at the epoch end.
type LeaseRecord struct {
	Parent netblock.Prefix
	Child  netblock.Prefix
	FromAS uint32
	ToAS   uint32
	Start  time.Time
	End    time.Time
}

// Input is the full event history the index is built from. Start/End bound
// the simulated epoch: queries are answered for dates in [Start, End).
type Input struct {
	Start       time.Time
	End         time.Time
	Allocations []AllocationRecord
	Transfers   []TransferRecord
	Leases      []LeaseRecord
}

// Span is one holding span: Org held Prefix for [Start, End). A zero End
// means the block is still held at the epoch end. Same-day transfer chains
// produce zero-length spans (Start == End), which point-in-time lookups
// skip over but timelines retain.
type Span struct {
	Prefix       netblock.Prefix
	Org          string
	RIR          registry.RIR
	Start        time.Time
	End          time.Time
	Via          Acquisition
	PricePerAddr float64
}

// ActiveOn reports whether the span covers date d.
func (s Span) ActiveOn(d time.Time) bool {
	return !d.Before(s.Start) && (s.End.IsZero() || d.Before(s.End))
}

// DelegationSpan is one delegation's lifetime: Child delegated from FromAS
// to ToAS for [Start, End) (zero End = open at the epoch end).
type DelegationSpan struct {
	Parent netblock.Prefix
	Child  netblock.Prefix
	FromAS uint32
	ToAS   uint32
	Start  time.Time
	End    time.Time
}

// ActiveOn reports whether the delegation covers date d.
func (s DelegationSpan) ActiveOn(d time.Time) bool {
	return !d.Before(s.Start) && (s.End.IsZero() || d.Before(s.End))
}

// EventKind classifies entries of the merged event stream behind Diff.
type EventKind string

// Event kinds.
const (
	EventTransfer        EventKind = "transfer"
	EventDelegationStart EventKind = "delegation_start"
	EventDelegationEnd   EventKind = "delegation_end"
)

// Event is one entry of the merged, date-sorted event stream: a transfer,
// or a delegation starting or ending. Only the fields for its kind are set.
type Event struct {
	Date   time.Time
	Kind   EventKind
	Prefix netblock.Prefix // transferred block, or delegated child

	// Transfer fields.
	From, To     string
	FromRIR      registry.RIR
	ToRIR        registry.RIR
	Type         string
	PricePerAddr float64

	// Delegation fields.
	Parent netblock.Prefix
	FromAS uint32
	ToAS   uint32
}

// QuarterPrices is the transfer-market price state of one quarter,
// aggregated over the priced (market) transfers executed in it.
type QuarterPrices struct {
	Quarter   stats.Quarter
	Transfers int     // all transfers executed in the quarter
	Priced    int     // transfers carrying a nonzero price
	Addresses uint64  // addresses moved by all transfers
	MeanPrice float64 // mean USD/addr over priced transfers; 0 if none
	MinPrice  float64
	MaxPrice  float64
}

// spanRange is a half-open index range [lo, hi) into a shared span slice.
type spanRange struct{ lo, hi int32 }

// maxEpochs caps the number of delegation epochs; beyond it, epochs absorb
// multiple boundary dates and queries date-filter within the epoch. It
// bounds build cost and memory (a span's index is appended to every epoch
// it overlaps) while keeping each epoch's list, which a covered lookup
// binary-searches and scans, short.
const maxEpochs = 256

// Index is the immutable as-of index. Build it with New (or Restore) and
// share it freely: all methods are safe for concurrent use.
type Index struct {
	in Input // normalized; Record marshals exactly this

	spans      []Span // grouped by prefix (Compare order), date-sorted within
	holderTrie *netblock.Trie[spanRange]

	delegs    []DelegationSpan // sorted by (child, start, end, parent, AS pair)
	delegTrie *netblock.Trie[spanRange]
	// epochStarts[i] is the first date of delegation epoch i, which runs
	// to epochStarts[i+1] (the last one to the epoch end); epochs[i]
	// holds, ascending, the indexes into delegs of the spans overlapping
	// epoch i.
	epochStarts []time.Time
	epochs      [][]int32

	events   []Event
	quarters []QuarterPrices
}

// New builds the index from an event history. It normalizes the input
// (sorting allocations and leases canonically, clamping lease spans to
// [Start, End), truncating dates to UTC day granularity) and then derives
// every structure deterministically from the normalized form, so equal
// histories always produce equal indexes — and equal Record() bytes.
//
// Every build pass is linear in the history, up to the sorts, and sizes
// its output exactly: the index keeps its slices for the life of a
// generation.
func New(in Input) (*Index, error) {
	norm, forest, err := normalize(in)
	if err != nil {
		return nil, err
	}
	ix := &Index{in: norm}
	if err := ix.buildSpans(forest); err != nil {
		return nil, err
	}
	ix.buildDelegations()
	ix.buildEvents()
	ix.buildQuarters()
	return ix, nil
}

const secondsPerDay = 24 * 60 * 60

// day truncates a timestamp to its UTC calendar day. The index is
// date-granular: every event in the study lands on a UTC midnight already,
// and queries are keyed by date, so a UTC midnight is returned as is
// (less any monotonic clock reading) without a calendar round trip.
func day(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	if t.Location() == time.UTC && t.Nanosecond() == 0 && t.Unix()%secondsPerDay == 0 {
		return t.Round(0)
	}
	y, m, d := t.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// transferForest is the covering structure of the distinct transfer
// prefixes: a trie of those prefixes alone, held as parent links over
// their Compare order. Prefixes either nest or are disjoint, so every
// prefix covering a transfer prefix is on its parent chain, and one
// ordered sweep builds the links.
type transferForest struct {
	prefixes []netblock.Prefix // distinct, in Compare order
	parent   []int32           // nearest covering prefix, -1 at a root
	of       []int32           // of[i]: index in prefixes of transfer i's prefix
}

// newTransferForest builds the forest over the transfers' prefixes.
func newTransferForest(transfers []TransferRecord) transferForest {
	keys := make([]uint64, len(transfers))
	for i, t := range transfers {
		keys[i] = prefixKey(t.Prefix)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	f := transferForest{
		prefixes: make([]netblock.Prefix, len(keys)),
		parent:   make([]int32, len(keys)),
		of:       make([]int32, len(transfers)),
	}
	for i, t := range transfers {
		k, _ := slices.BinarySearch(keys, prefixKey(t.Prefix))
		f.prefixes[k] = t.Prefix
		f.of[i] = int32(k)
	}
	for k, p := range f.prefixes {
		f.parent[k] = f.covering(int32(k)-1, p)
	}
	return f
}

// prefixKey packs a prefix into a key whose numeric order is Compare
// order.
func prefixKey(p netblock.Prefix) uint64 {
	return uint64(p.Addr())<<8 | uint64(p.Bits())
}

// covering returns the most specific forest prefix covering p, given the
// index of the last forest prefix that sorts on or before p (-1 if none),
// or -1 when no forest prefix covers p. A prefix covering p sorts before
// it, and covers every prefix sorting between the two, so it is on that
// last prefix's parent chain.
func (f *transferForest) covering(last int32, p netblock.Prefix) int32 {
	for k := last; k >= 0; k = f.parent[k] {
		if f.prefixes[k].Covers(p) {
			return k
		}
	}
	return -1
}

// normalize copies and canonicalizes the input so that the rest of the
// build — and Record() — see one unique representation per history. It
// also returns the transfer prefixes' covering forest, which the date
// repair and buildSpans share.
func normalize(in Input) (Input, transferForest, error) {
	out := Input{Start: day(in.Start), End: day(in.End)}
	if out.Start.IsZero() || out.End.IsZero() || !out.Start.Before(out.End) {
		return Input{}, transferForest{}, fmt.Errorf("temporal: epoch [%s, %s) is empty", fmtDay(out.Start), fmtDay(out.End))
	}

	out.Allocations = slices.Clone(in.Allocations)
	for i := range out.Allocations {
		out.Allocations[i].Date = day(out.Allocations[i].Date)
	}
	byPrefix := func(a, b AllocationRecord) int { return a.Prefix.Compare(b.Prefix) }
	if !slices.IsSortedFunc(out.Allocations, byPrefix) {
		slices.SortFunc(out.Allocations, byPrefix)
	}
	for i := 1; i < len(out.Allocations); i++ {
		if out.Allocations[i].Prefix == out.Allocations[i-1].Prefix {
			return Input{}, transferForest{}, fmt.Errorf("temporal: duplicate allocation for %v", out.Allocations[i].Prefix)
		}
	}

	// Transfers keep their log order — it is the execution order, the
	// order the registry actually applied them in, and the only thing
	// that orders a same-day chain. The log's dates, however, are not
	// monotone along a block's chain: the generator sweeps market by
	// market, so an entry executed later can carry an earlier date (real
	// RIR transfer logs have the same wart). Each date is repaired
	// forward to the latest date of any earlier log entry covering the
	// same space, which makes every block's history date-monotone while
	// preserving the registry's final state. The repair is idempotent,
	// so Record/Restore round-trips byte-identically.
	out.Transfers = slices.Clone(in.Transfers)
	forest := newTransferForest(out.Transfers)
	latest := make([]time.Time, len(forest.prefixes)) // zero: no entry yet
	for i := range out.Transfers {
		t := &out.Transfers[i]
		t.Date = day(t.Date)
		k := forest.of[i]
		for a := k; a >= 0; a = forest.parent[a] {
			if latest[a].After(t.Date) {
				t.Date = latest[a]
			}
		}
		latest[k] = t.Date
	}

	out.Leases = make([]LeaseRecord, 0, len(in.Leases))
	for _, l := range in.Leases {
		l.Start, l.End = day(l.Start), day(l.End)
		if !l.Start.Before(out.End) {
			continue // never visible inside the epoch
		}
		if l.Start.Before(out.Start) {
			l.Start = out.Start
		}
		if l.End.IsZero() || !l.End.Before(out.End) {
			l.End = time.Time{} // open: active through the epoch end
		}
		if !l.End.IsZero() && !l.Start.Before(l.End) {
			continue // empty after clamping
		}
		out.Leases = append(out.Leases, l)
	}
	// The order compares every field, so it is total on distinct records
	// and the result does not depend on the sort algorithm.
	slices.SortFunc(out.Leases, func(a, b LeaseRecord) int {
		if c := a.Child.Compare(b.Child); c != 0 {
			return c
		}
		if c := a.Start.Compare(b.Start); c != 0 {
			return c
		}
		if !a.End.Equal(b.End) {
			if leaseEndBefore(a.End, b.End) {
				return -1
			}
			return 1
		}
		if c := a.Parent.Compare(b.Parent); c != 0 {
			return c
		}
		if c := cmp.Compare(a.FromAS, b.FromAS); c != 0 {
			return c
		}
		return cmp.Compare(a.ToAS, b.ToAS)
	})
	return out, forest, nil
}

// leaseEndBefore orders span end dates with the open (zero) end last.
func leaseEndBefore(a, b time.Time) bool {
	if a.IsZero() {
		return false
	}
	if b.IsZero() {
		return true
	}
	return a.Before(b)
}

// buildSpans reconstructs every block's holding history from the final
// allocation state plus the transfer chain, exactly as a replay of the
// event log would: the holder at D is the holder after applying every
// transfer dated on or before D.
//
// A block's chain is every transfer whose prefix covers it, not only exact
// matches: the registry splits an allocation when a sub-block is
// transferred away, so a block transferred whole and later split leaves a
// transfer record at the parent prefix and final allocations only at the
// pieces — each piece inherits the parent's part of the chain.
//
// The registry also rewrites an allocation in place on transfer (org, RIR
// and date all change), so for a transferred block the original delegation
// date is unrecoverable; its first span opens at the epoch start, held by
// the first transfer's sender, via "origin". Untransferred blocks keep
// their true allocation date, even when it predates the epoch (legacy
// space).
//
// The chains come from the transfer forest: each forest prefix lists its
// transfers in log order, and a block's chain is the merge of the lists
// on the parent chain of the most specific forest prefix covering it.
// A first pass finds that prefix for every block — allocations and forest
// prefixes are both in Compare order, so one merged sweep does — and
// counts the spans, so the span slice is allocated once at its exact size.
func (ix *Index) buildSpans(f transferForest) error {
	in := ix.in
	nPrefixes := len(f.prefixes)

	// Transfers of each forest prefix, in log order: prefix k's are
	// byPrefix[listStart[k]:listStart[k+1]].
	listStart := make([]int32, nPrefixes+1)
	for _, k := range f.of {
		listStart[k+1]++
	}
	for k := range nPrefixes {
		listStart[k+1] += listStart[k]
	}
	byPrefix := make([]int32, len(in.Transfers))
	next := slices.Clone(listStart[:nPrefixes])
	for i, k := range f.of {
		byPrefix[next[k]] = int32(i)
		next[k]++
	}
	// chainLen[k] counts the transfers of k and of every prefix covering
	// it; a parent sorts before its children.
	chainLen := make([]int32, nPrefixes)
	for k := range nPrefixes {
		chainLen[k] = listStart[k+1] - listStart[k]
		if p := f.parent[k]; p >= 0 {
			chainLen[k] += chainLen[p]
		}
	}

	// The most specific forest prefix covering each block, and the span
	// count.
	cover := make([]int32, len(in.Allocations))
	nSpans, seen := 0, int32(-1)
	for i, a := range in.Allocations {
		for int(seen)+1 < nPrefixes && f.prefixes[seen+1].Compare(a.Prefix) <= 0 {
			seen++
		}
		k := f.covering(seen, a.Prefix)
		cover[i] = k
		nSpans++
		if k >= 0 {
			nSpans += int(chainLen[k])
		}
	}

	used := make([]bool, nPrefixes)
	var chain []int32 // reused: a block's transfers, in log order
	ix.spans = make([]Span, 0, nSpans)
	ix.holderTrie = netblock.NewTrie[spanRange]()
	for i, a := range in.Allocations {
		p := a.Prefix
		chain = chain[:0]
		for k := cover[i]; k >= 0; k = f.parent[k] {
			chain = append(chain, byPrefix[listStart[k]:listStart[k+1]]...)
			used[k] = true
		}
		slices.Sort(chain)
		lo := int32(len(ix.spans))
		if len(chain) == 0 {
			ix.spans = append(ix.spans, Span{
				Prefix: p, Org: a.Org, RIR: a.RIR,
				Start: a.Date, Via: ViaOrigin,
			})
		} else {
			first := in.Transfers[chain[0]]
			origin := in.Start
			if first.Date.Before(origin) {
				origin = first.Date // pre-epoch transfer: keep spans tiling
			}
			ix.spans = append(ix.spans, Span{
				Prefix: p, Org: first.From, RIR: first.FromRIR,
				Start: origin, End: first.Date, Via: ViaOrigin,
			})
			for i, ti := range chain {
				t := &in.Transfers[ti]
				if i > 0 && t.Date.Before(in.Transfers[chain[i-1]].Date) {
					return fmt.Errorf("temporal: transfers of %v out of date order", p)
				}
				end := time.Time{}
				if i+1 < len(chain) {
					end = in.Transfers[chain[i+1]].Date
				}
				ix.spans = append(ix.spans, Span{
					Prefix: p, Org: t.To, RIR: t.ToRIR,
					Start: t.Date, End: end,
					Via: viaOf(t.Type), PricePerAddr: t.PricePerAddr,
				})
			}
			last := in.Transfers[chain[len(chain)-1]]
			if last.To != a.Org {
				return fmt.Errorf("temporal: %v: final holder %q does not match last transfer recipient %q",
					p, a.Org, last.To)
			}
		}
		ix.holderTrie.Insert(p, spanRange{lo, int32(len(ix.spans))})
	}
	for i, k := range f.of {
		if !used[k] {
			return fmt.Errorf("temporal: transfer of %v covers no final allocation", in.Transfers[i].Prefix)
		}
	}
	return nil
}

// viaOf maps a registry transfer type to an acquisition kind.
func viaOf(typ string) Acquisition {
	if typ == string(registry.TypeMerger) {
		return ViaMerger
	}
	return ViaMarket
}

// buildDelegations materializes the delegation spans, the global child
// trie, and the per-epoch index lists.
func (ix *Index) buildDelegations() {
	ix.delegTrie = netblock.NewTrie[spanRange]()
	ix.delegs = make([]DelegationSpan, len(ix.in.Leases))
	for i, l := range ix.in.Leases {
		ix.delegs[i] = DelegationSpan(l)
	}
	for lo := 0; lo < len(ix.delegs); {
		hi := lo
		for hi < len(ix.delegs) && ix.delegs[hi].Child == ix.delegs[lo].Child {
			hi++
		}
		ix.delegTrie.Insert(ix.delegs[lo].Child, spanRange{int32(lo), int32(hi)})
		lo = hi
	}

	// Epoch boundaries: every distinct delegation start/end inside the
	// epoch, thinned to at most maxEpochs partitions.
	bounds := make([]time.Time, 0, 2*len(ix.delegs))
	for _, d := range ix.delegs {
		if d.Start.After(ix.in.Start) {
			bounds = append(bounds, d.Start)
		}
		if !d.End.IsZero() {
			bounds = append(bounds, d.End)
		}
	}
	slices.SortFunc(bounds, time.Time.Compare)
	bounds = slices.CompactFunc(bounds, time.Time.Equal)
	stride := 1
	if len(bounds) > maxEpochs {
		stride = (len(bounds) + maxEpochs - 1) / maxEpochs
	}
	ix.epochStarts = make([]time.Time, 1, 1+len(bounds)/stride)
	ix.epochStarts[0] = ix.in.Start
	for i := stride - 1; i < len(bounds); i += stride {
		ix.epochStarts = append(ix.epochStarts, bounds[i])
	}

	// Each span lands in the epochs [lo, hi): a first pass finds those
	// ranges and sizes every epoch's list, and all lists share one
	// exactly sized backing array. Spans are then visited in delegs
	// order, so every epoch's list comes out ascending, and therefore
	// sorted by child, without a sort.
	nEpochs := len(ix.epochStarts)
	ranges := make([]spanRange, len(ix.delegs))
	sizes := make([]int32, nEpochs+1) // a difference array until summed
	for i, d := range ix.delegs {
		lo := lastStartAtOrBefore(ix.epochStarts, d.Start, nil)
		hi := nEpochs
		if !d.End.IsZero() {
			// The span is dead in epochs starting at or after its end.
			hi = sort.Search(nEpochs, func(j int) bool {
				return !ix.epochStarts[j].Before(d.End)
			})
		}
		hi = max(hi, lo)
		ranges[i] = spanRange{int32(lo), int32(hi)}
		sizes[lo]++
		sizes[hi]--
	}
	total := int32(0)
	for e := range nEpochs {
		if e > 0 {
			sizes[e] += sizes[e-1]
		}
		total += sizes[e]
	}
	backing := make([]int32, total)
	ix.epochs = make([][]int32, nEpochs)
	off := int32(0)
	for e := range nEpochs {
		if n := sizes[e]; n > 0 {
			ix.epochs[e] = backing[off : off : off+n]
			off += n
		}
	}
	for i, r := range ranges {
		for e := r.lo; e < r.hi; e++ {
			ix.epochs[e] = append(ix.epochs[e], int32(i))
		}
	}
}

// lastStartAtOrBefore returns the index of the last element of starts that
// is not after d; starts[0] is the epoch start, so the result is >= 0 for
// any in-range date. probe, when set, is called once per search step.
func lastStartAtOrBefore(starts []time.Time, d time.Time, probe func()) int {
	i := sort.Search(len(starts), func(j int) bool {
		if probe != nil {
			probe()
		}
		return starts[j].After(d)
	}) - 1
	if i < 0 {
		i = 0
	}
	return i
}

// buildEvents merges transfers and delegation starts/ends into one
// date-sorted stream. The order is stable over a deterministic pre-order
// (transfers in log order, then delegation starts, then ends, each in
// normalized order), so same-day events keep a reproducible order. The
// sort runs over pre-order positions, keyed by date, and the stream is
// written once, in its final order.
func (ix *Index) buildEvents() {
	nT, nD := len(ix.in.Transfers), len(ix.delegs)
	ends := make([]int32, 0, nD) // delegs with an end date, in order
	for i, d := range ix.delegs {
		if !d.End.IsZero() {
			ends = append(ends, int32(i))
		}
	}
	// Pre-order position p is transfer p below nT, the start of
	// delegs[p-nT] below nT+nD, and the end of delegs[ends[p-nT-nD]]
	// after that. Every date is a UTC midnight, so Unix seconds order
	// them as Before does.
	n := nT + nD + len(ends)
	dates := make([]int64, n)
	for i := range ix.in.Transfers {
		dates[i] = ix.in.Transfers[i].Date.Unix()
	}
	for i := range ix.delegs {
		dates[nT+i] = ix.delegs[i].Start.Unix()
	}
	for i, di := range ends {
		dates[nT+nD+i] = ix.delegs[di].End.Unix()
	}
	order := make([]int32, n)
	for p := range order {
		order[p] = int32(p)
	}
	slices.SortFunc(order, func(a, b int32) int {
		if c := cmp.Compare(dates[a], dates[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})

	ix.events = make([]Event, n)
	for i, p := range order {
		e := &ix.events[i]
		switch {
		case int(p) < nT:
			t := &ix.in.Transfers[p]
			*e = Event{
				Date: t.Date, Kind: EventTransfer, Prefix: t.Prefix,
				From: t.From, To: t.To, FromRIR: t.FromRIR, ToRIR: t.ToRIR,
				Type: t.Type, PricePerAddr: t.PricePerAddr,
			}
		case int(p) < nT+nD:
			d := &ix.delegs[int(p)-nT]
			*e = Event{
				Date: d.Start, Kind: EventDelegationStart, Prefix: d.Child,
				Parent: d.Parent, FromAS: d.FromAS, ToAS: d.ToAS,
			}
		default:
			d := &ix.delegs[ends[int(p)-nT-nD]]
			*e = Event{
				Date: d.End, Kind: EventDelegationEnd, Prefix: d.Child,
				Parent: d.Parent, FromAS: d.FromAS, ToAS: d.ToAS,
			}
		}
	}
}

// buildQuarters aggregates the quarterly transfer-price state. Sums are
// accumulated in transfer-log order, so the floating-point results are
// identical on every build.
func (ix *Index) buildQuarters() {
	type agg struct {
		transfers, priced int
		addrs             uint64
		sum, min, max     float64
	}
	byQuarter := make(map[stats.Quarter]*agg)
	var order []stats.Quarter
	for _, t := range ix.in.Transfers {
		q := stats.QuarterOf(t.Date)
		a := byQuarter[q]
		if a == nil {
			a = &agg{}
			byQuarter[q] = a
			order = append(order, q)
		}
		a.transfers++
		a.addrs += t.Prefix.NumAddrs()
		if t.PricePerAddr > 0 {
			if a.priced == 0 || t.PricePerAddr < a.min {
				a.min = t.PricePerAddr
			}
			if t.PricePerAddr > a.max {
				a.max = t.PricePerAddr
			}
			a.priced++
			a.sum += t.PricePerAddr
		}
	}
	stats.SortQuarters(order)
	for _, q := range order {
		a := byQuarter[q]
		qp := QuarterPrices{
			Quarter: q, Transfers: a.transfers, Priced: a.priced,
			Addresses: a.addrs, MinPrice: a.min, MaxPrice: a.max,
		}
		if a.priced > 0 {
			qp.MeanPrice = a.sum / float64(a.priced)
		}
		ix.quarters = append(ix.quarters, qp)
	}
}

// Input returns a copy of the normalized input the index was built from.
// NaiveAt over this copy is the reference the index must agree with.
func (ix *Index) Input() Input {
	out := ix.in
	out.Allocations = append([]AllocationRecord(nil), ix.in.Allocations...)
	out.Transfers = append([]TransferRecord(nil), ix.in.Transfers...)
	out.Leases = append([]LeaseRecord(nil), ix.in.Leases...)
	return out
}

// Start returns the first queryable date (inclusive).
func (ix *Index) Start() time.Time { return ix.in.Start }

// End returns the epoch end (exclusive): the first date that is NOT
// queryable.
func (ix *Index) End() time.Time { return ix.in.End }

// Contains reports whether d falls inside the queryable epoch [Start, End).
func (ix *Index) Contains(d time.Time) bool {
	d = day(d)
	return !d.Before(ix.in.Start) && d.Before(ix.in.End)
}

// EventCount returns the number of entries in the merged event stream.
func (ix *Index) EventCount() int { return len(ix.events) }

// SpanCount returns the number of holding spans.
func (ix *Index) SpanCount() int { return len(ix.spans) }

// DelegationCount returns the number of delegation spans.
func (ix *Index) DelegationCount() int { return len(ix.delegs) }

// EpochCount returns the number of delegation-epoch partitions.
func (ix *Index) EpochCount() int { return len(ix.epochs) }

// Quarters returns the quarterly price state, ascending by quarter.
func (ix *Index) Quarters() []QuarterPrices {
	return append([]QuarterPrices(nil), ix.quarters...)
}

// fmtDay renders a date as YYYY-MM-DD ("" for the zero time).
func fmtDay(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format("2006-01-02")
}
