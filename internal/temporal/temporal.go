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
// Layout (see ARCHITECTURE.md §9): the index is pointer-free columns.
// Every date is an int32 day number, every org, party, status and
// transfer type an int32 id into one interned string table, and the
// normalized input is kept in that form: allocation, transfer and lease
// rows. Queries build their answers from the columns. The allocated
// blocks form a sorted prefix array with covering-parent links, and each
// block's holding spans are its transfer chain, a run of transfer row
// numbers: the first span is the chain's first sender (or, with no chain,
// the allocation itself) and every transfer starts the next, so the spans
// tile time and "last span starting on or before D" is the holder at D,
// found by binary search. Delegation spans are the lease rows, sorted by
// child; their distinct children form a second sorted prefix array with
// parent links, so exact and covering delegations are a parent walk from
// a binary search. For covered delegations the time axis is partitioned
// into epochs whose boundaries are drawn from delegation start/end dates;
// a date binary-searches to its epoch, and each epoch is an ascending
// list of the indexes of the spans overlapping it — sorted by child, so
// the children strictly inside a prefix are one contiguous run, found by
// binary search. The merged event stream is one sorted column of 4-byte
// (kind, row) references.
package temporal

import (
	"cmp"
	"fmt"
	"math"
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

// spanRange is a half-open index range [lo, hi).
type spanRange struct{ lo, hi int32 }

// maxEpochs caps the number of delegation epochs; beyond it, epochs absorb
// multiple boundary dates and queries date-filter within the epoch. It
// bounds build cost and memory (a span's index is appended to every epoch
// it overlaps) while keeping each epoch's list, which a covered lookup
// binary-searches and scans, short.
const maxEpochs = 256

// allocRow is one allocation record of the normalized input; its prefix
// is the block's in Index.blocks.
type allocRow struct {
	org, status int32 // string ids
	date        int32
	rir         uint8
}

// xferRow is one transfer of the normalized input, its date repaired.
type xferRow struct {
	price         float64
	prefix        netblock.Prefix
	from, to, typ int32 // string ids
	date          int32
	fromRIR       uint8
	toRIR         uint8
}

// leaseRow is one lease of the normalized input, which is also one
// delegation span: [start, end), end zeroDay when open.
type leaseRow struct {
	parent, child netblock.Prefix
	fromAS, toAS  uint32
	start, end    int32
}

// activeOn reports whether the delegation covers day d.
func (l *leaseRow) activeOn(d int32) bool {
	return d >= l.start && (l.end == zeroDay || d < l.end)
}

// eventRef is one entry of the merged event stream: its kind in the top
// two bits and, below them, its transfer row or lease row. Ordered as
// numbers, refs follow the stream's pre-order: transfers in log order,
// then delegation starts, then ends, each in row order.
type eventRef uint32

// Event kinds as stored in an eventRef.
const (
	kindTransfer = iota
	kindDelegationStart
	kindDelegationEnd
)

// refRowBits is how many low bits of an eventRef hold the row, and so
// bounds the transfer and lease rows an index can hold.
const refRowBits = 30

func newEventRef(kind int, row int) eventRef { return eventRef(kind<<refRowBits | row) }

func (r eventRef) kind() int { return int(r >> refRowBits) }
func (r eventRef) row() int  { return int(r & (1<<refRowBits - 1)) }

// Index is the immutable as-of index. Build it with New (or Restore) and
// share it freely: all methods are safe for concurrent use.
type Index struct {
	start, end int32 // the queryable epoch [start, end), day numbers
	strs       strTable

	// The normalized input, which Record and Input render: allocations
	// in prefix order (allocation i is block i of blocks), transfers in
	// log order, leases in their canonical order (see normalize).
	blocks forest
	allocs []allocRow
	xfers  []xferRow
	leases []leaseRow

	// Block i's transfer chain, in log order, is
	// chains[chainLo[i]:chainLo[i+1]]; it has one holding span more
	// than it has transfers.
	chainLo []int32
	chains  []int32

	// Delegation child group g is leases[childLo[g]:childLo[g+1]], the
	// leases of child children.prefixes[g].
	children forest
	childLo  []int32
	// epochStarts[e] is the first day of delegation epoch e, which runs
	// to epochStarts[e+1] (the last one to the epoch end);
	// epochIDs[epochLo[e]:epochLo[e+1]] holds, ascending, the lease rows
	// overlapping epoch e.
	epochStarts []int32
	epochLo     []int32
	epochIDs    []int32

	events   []eventRef // date-sorted, pre-order within a day
	quarters []QuarterPrices
}

// New builds the index from an event history. It normalizes the input
// (sorting allocations and leases canonically, clamping lease spans to
// [Start, End), truncating dates to UTC day granularity) and then derives
// every structure deterministically from the normalized form, so equal
// histories always produce equal indexes — and equal Record() bytes.
//
// Every build pass is linear in the history, up to the sorts, and sizes
// its output exactly: the index keeps its columns for the life of a
// generation.
func New(in Input) (*Index, error) {
	ix, forest, err := normalize(in)
	if err != nil {
		return nil, err
	}
	if err := ix.buildSpans(forest); err != nil {
		return nil, err
	}
	ix.buildDelegations()
	ix.buildEvents()
	ix.buildQuarters()
	return ix, nil
}

// transferForest is the covering forest of the distinct transfer
// prefixes, with each transfer's place in it.
type transferForest struct {
	forest
	of []int32 // of[i]: index in prefixes of transfer i's prefix
}

// newTransferForest builds the forest over the transfers' prefixes.
func newTransferForest(transfers []TransferRecord) transferForest {
	keys := make([]uint64, len(transfers))
	for i, t := range transfers {
		keys[i] = prefixKey(t.Prefix)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	prefixes := make([]netblock.Prefix, len(keys))
	of := make([]int32, len(transfers))
	for i, t := range transfers {
		k, _ := slices.BinarySearch(keys, prefixKey(t.Prefix))
		prefixes[k] = t.Prefix
		of[i] = int32(k)
	}
	return transferForest{forest: newForest(prefixes), of: of}
}

// prefixKey packs a prefix into a key whose numeric order is Compare
// order.
func prefixKey(p netblock.Prefix) uint64 {
	return uint64(p.Addr())<<8 | uint64(p.Bits())
}

// normalize canonicalizes the input into the index's columns, so that
// the rest of the build — and Record() — see one unique representation
// per history. It also returns the transfer prefixes' covering forest,
// which the date repair and buildSpans share.
func normalize(in Input) (*Index, transferForest, error) {
	start, end := day(in.Start), day(in.End)
	if start.IsZero() || end.IsZero() || !start.Before(end) {
		return nil, transferForest{}, fmt.Errorf("temporal: epoch [%s, %s) is empty", fmtDay(start), fmtDay(end))
	}
	if len(in.Transfers) >= 1<<refRowBits || len(in.Leases) >= 1<<refRowBits {
		return nil, transferForest{}, fmt.Errorf("temporal: %d transfers and %d leases: too many to index", len(in.Transfers), len(in.Leases))
	}
	ix := &Index{}
	var err error
	if ix.start, err = storedDay(start); err != nil {
		return nil, transferForest{}, err
	}
	if ix.end, err = storedDay(end); err != nil {
		return nil, transferForest{}, err
	}
	names := interner{ids: make(map[string]int32)}

	allocs := in.Allocations
	byPrefix := func(a, b AllocationRecord) int { return a.Prefix.Compare(b.Prefix) }
	if !slices.IsSortedFunc(allocs, byPrefix) {
		allocs = slices.Clone(allocs)
		slices.SortFunc(allocs, byPrefix)
	}
	prefixes := make([]netblock.Prefix, len(allocs))
	ix.allocs = make([]allocRow, len(allocs))
	for i := range allocs {
		a := &allocs[i]
		if i > 0 && a.Prefix == allocs[i-1].Prefix {
			return nil, transferForest{}, fmt.Errorf("temporal: duplicate allocation for %v", a.Prefix)
		}
		row := allocRow{org: names.id(a.Org), status: names.id(a.Status)}
		if row.date, err = storedDay(a.Date); err != nil {
			return nil, transferForest{}, err
		}
		if row.rir, err = rirCode(a.RIR); err != nil {
			return nil, transferForest{}, err
		}
		prefixes[i], ix.allocs[i] = a.Prefix, row
	}
	ix.blocks = newForest(prefixes)

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
	forest := newTransferForest(in.Transfers)
	latest := make([]int32, len(forest.prefixes)) // zeroDay: no entry yet
	for k := range latest {
		latest[k] = zeroDay
	}
	ix.xfers = make([]xferRow, len(in.Transfers))
	for i := range in.Transfers {
		t := &in.Transfers[i]
		row := xferRow{
			price: t.PricePerAddr, prefix: t.Prefix,
			from: names.id(t.From), to: names.id(t.To), typ: names.id(t.Type),
		}
		if row.date, err = storedDay(t.Date); err != nil {
			return nil, transferForest{}, err
		}
		if row.fromRIR, err = rirCode(t.FromRIR); err != nil {
			return nil, transferForest{}, err
		}
		if row.toRIR, err = rirCode(t.ToRIR); err != nil {
			return nil, transferForest{}, err
		}
		k := forest.of[i]
		for a := k; a >= 0; a = forest.parent[a] {
			row.date = max(row.date, latest[a])
		}
		latest[k] = row.date
		ix.xfers[i] = row
	}
	ix.strs = names.table()

	// Lease dates are clamped to the epoch, so no lease date is out of
	// range: one outside it is dropped or cut.
	ix.leases = make([]leaseRow, 0, len(in.Leases))
	for _, l := range in.Leases {
		row := leaseRow{
			parent: l.Parent, child: l.Child, fromAS: l.FromAS, toAS: l.ToAS,
			start: queryDay(l.Start), end: queryDay(l.End),
		}
		if row.start >= ix.end {
			continue // never visible inside the epoch
		}
		row.start = max(row.start, ix.start)
		if row.end >= ix.end {
			row.end = zeroDay // open: active through the epoch end
		}
		if row.end != zeroDay && row.start >= row.end {
			continue // empty after clamping
		}
		ix.leases = append(ix.leases, row)
	}
	// The order compares every field, so it is total on distinct records
	// and the result does not depend on the sort algorithm. The open end
	// sorts last.
	openLast := func(end int32) int32 {
		if end == zeroDay {
			return math.MaxInt32
		}
		return end
	}
	slices.SortFunc(ix.leases, func(a, b leaseRow) int {
		if c := a.child.Compare(b.child); c != 0 {
			return c
		}
		if c := cmp.Compare(a.start, b.start); c != 0 {
			return c
		}
		if c := cmp.Compare(openLast(a.end), openLast(b.end)); c != 0 {
			return c
		}
		if c := a.parent.Compare(b.parent); c != 0 {
			return c
		}
		if c := cmp.Compare(a.fromAS, b.fromAS); c != 0 {
			return c
		}
		return cmp.Compare(a.toAS, b.toAS)
	})
	return ix, forest, nil
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
// counts the chains' length, so they are allocated once at their exact
// size.
func (ix *Index) buildSpans(f transferForest) error {
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
	byPrefix := make([]int32, len(ix.xfers))
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

	// The most specific forest prefix covering each block, and the chain
	// length.
	blocks := ix.blocks.prefixes
	cover := make([]int32, len(blocks))
	nChain, seen := 0, int32(-1)
	for i, p := range blocks {
		for int(seen)+1 < nPrefixes && f.prefixes[seen+1].Compare(p) <= 0 {
			seen++
		}
		k := f.covering(seen, p, nil)
		cover[i] = k
		if k >= 0 {
			nChain += int(chainLen[k])
		}
	}

	used := make([]bool, nPrefixes)
	ix.chainLo = make([]int32, len(blocks)+1)
	ix.chains = make([]int32, 0, nChain)
	for i, p := range blocks {
		lo := len(ix.chains)
		for k := cover[i]; k >= 0; k = f.parent[k] {
			ix.chains = append(ix.chains, byPrefix[listStart[k]:listStart[k+1]]...)
			used[k] = true
		}
		chain := ix.chains[lo:]
		slices.Sort(chain)
		for j := 1; j < len(chain); j++ {
			if ix.xfers[chain[j]].date < ix.xfers[chain[j-1]].date {
				return fmt.Errorf("temporal: transfers of %v out of date order", p)
			}
		}
		if len(chain) > 0 {
			org, last := ix.allocs[i].org, ix.xfers[chain[len(chain)-1]].to
			if last != org {
				return fmt.Errorf("temporal: %v: final holder %q does not match last transfer recipient %q",
					p, ix.strs.at(org), ix.strs.at(last))
			}
		}
		ix.chainLo[i+1] = int32(len(ix.chains))
	}
	for i, k := range f.of {
		if !used[k] {
			return fmt.Errorf("temporal: transfer of %v covers no final allocation", ix.xfers[i].prefix)
		}
	}
	return nil
}

// chain returns block b's transfer chain.
func (ix *Index) chain(b int32) []int32 { return ix.chains[ix.chainLo[b]:ix.chainLo[b+1]] }

// spanStart returns the first day of span j of block b, whose chain is
// chain. With no chain the block has one span, from its allocation date;
// otherwise span 0 is the first sender's, from the epoch start (or the
// first transfer, when that predates the epoch, to keep spans tiling),
// and span j > 0 starts at transfer j-1 of the chain.
func (ix *Index) spanStart(b int32, chain []int32, j int) int32 {
	switch {
	case len(chain) == 0:
		return ix.allocs[b].date
	case j == 0:
		return min(ix.start, ix.xfers[chain[0]].date)
	}
	return ix.xfers[chain[j-1]].date
}

// spanEnd returns the day span j of a block with chain ends on: the next
// span's start, or zeroDay for the last, open span.
func (ix *Index) spanEnd(chain []int32, j int) int32 {
	if j < len(chain) {
		return ix.xfers[chain[j]].date
	}
	return zeroDay
}

// span renders span j of block b.
func (ix *Index) span(b int32, chain []int32, j int) Span {
	s := Span{
		Prefix: ix.blocks.prefixes[b],
		Start:  dateOf(ix.spanStart(b, chain, j)),
		End:    dateOf(ix.spanEnd(chain, j)),
		Via:    ViaOrigin,
	}
	switch {
	case len(chain) == 0:
		a := &ix.allocs[b]
		s.Org, s.RIR = ix.strs.at(a.org), registry.RIR(a.rir)
	case j == 0:
		t := &ix.xfers[chain[0]]
		s.Org, s.RIR = ix.strs.at(t.from), registry.RIR(t.fromRIR)
	default:
		t := &ix.xfers[chain[j-1]]
		s.Org, s.RIR = ix.strs.at(t.to), registry.RIR(t.toRIR)
		s.Via, s.PricePerAddr = viaOf(ix.strs.at(t.typ)), t.price
	}
	return s
}

// viaOf maps a registry transfer type to an acquisition kind.
func viaOf(typ string) Acquisition {
	if typ == string(registry.TypeMerger) {
		return ViaMerger
	}
	return ViaMarket
}

// delegation renders a lease row as a delegation span.
func delegation(l *leaseRow) DelegationSpan {
	return DelegationSpan{
		Parent: l.parent, Child: l.child, FromAS: l.fromAS, ToAS: l.toAS,
		Start: dateOf(l.start), End: dateOf(l.end),
	}
}

// buildDelegations groups the delegation spans by child, links the
// children's forest, and builds the per-epoch index lists.
func (ix *Index) buildDelegations() {
	nGroups := 0
	for i := range ix.leases {
		if i == 0 || ix.leases[i].child != ix.leases[i-1].child {
			nGroups++
		}
	}
	children := make([]netblock.Prefix, 0, nGroups)
	ix.childLo = make([]int32, 0, nGroups+1)
	for i := range ix.leases {
		if i == 0 || ix.leases[i].child != ix.leases[i-1].child {
			children = append(children, ix.leases[i].child)
			ix.childLo = append(ix.childLo, int32(i))
		}
	}
	ix.childLo = append(ix.childLo, int32(len(ix.leases)))
	ix.children = newForest(children)

	// Epoch boundaries: every distinct delegation start/end inside the
	// epoch, thinned to at most maxEpochs partitions.
	bounds := make([]int32, 0, 2*len(ix.leases))
	for i := range ix.leases {
		l := &ix.leases[i]
		if l.start > ix.start {
			bounds = append(bounds, l.start)
		}
		if l.end != zeroDay {
			bounds = append(bounds, l.end)
		}
	}
	slices.Sort(bounds)
	bounds = slices.Compact(bounds)
	stride := 1
	if len(bounds) > maxEpochs {
		stride = (len(bounds) + maxEpochs - 1) / maxEpochs
	}
	ix.epochStarts = make([]int32, 1, 1+len(bounds)/stride)
	ix.epochStarts[0] = ix.start
	for i := stride - 1; i < len(bounds); i += stride {
		ix.epochStarts = append(ix.epochStarts, bounds[i])
	}

	// Each span lands in the epochs [lo, hi): a first pass finds those
	// ranges and sizes every epoch's list, and the lists share one
	// exactly sized column. Spans are then visited in row order, so every
	// epoch's list comes out ascending, and therefore sorted by child,
	// without a sort.
	nEpochs := len(ix.epochStarts)
	ranges := make([]spanRange, len(ix.leases))
	ix.epochLo = make([]int32, nEpochs+1)
	for i := range ix.leases {
		l := &ix.leases[i]
		lo := lastStartAtOrBefore(ix.epochStarts, l.start, nil)
		hi := nEpochs
		if l.end != zeroDay {
			// The span is dead in epochs starting at or after its end.
			hi, _ = slices.BinarySearch(ix.epochStarts, l.end)
		}
		hi = max(hi, lo)
		ranges[i] = spanRange{int32(lo), int32(hi)}
		for e := lo; e < hi; e++ {
			ix.epochLo[e+1]++
		}
	}
	for e := range nEpochs {
		ix.epochLo[e+1] += ix.epochLo[e]
	}
	ix.epochIDs = make([]int32, ix.epochLo[nEpochs])
	next := slices.Clone(ix.epochLo[:nEpochs])
	for i, r := range ranges {
		for e := r.lo; e < r.hi; e++ {
			ix.epochIDs[next[e]] = int32(i)
			next[e]++
		}
	}
}

// lastStartAtOrBefore returns the index of the last element of starts that
// is not after d; starts[0] is the epoch start, so the result is >= 0 for
// any in-range date. probe, when set, is called once per search step.
func lastStartAtOrBefore(starts []int32, d int32, probe func()) int {
	i := sort.Search(len(starts), func(j int) bool {
		if probe != nil {
			probe()
		}
		return starts[j] > d
	}) - 1
	return max(i, 0)
}

// buildEvents merges transfers and delegation starts/ends into one
// date-sorted stream of refs. Same-day events keep the refs' pre-order
// (transfers in log order, then delegation starts, then ends, each in
// row order), so the stream is one sort of (day, ref) keys.
func (ix *Index) buildEvents() {
	n := len(ix.xfers) + len(ix.leases)
	for i := range ix.leases {
		if ix.leases[i].end != zeroDay {
			n++
		}
	}
	// The day's sign bit is flipped so that unsigned order is day order.
	keys := make([]uint64, 0, n)
	key := func(d int32, r eventRef) uint64 { return uint64(uint32(d)^1<<31)<<32 | uint64(r) }
	for i := range ix.xfers {
		keys = append(keys, key(ix.xfers[i].date, newEventRef(kindTransfer, i)))
	}
	for i := range ix.leases {
		keys = append(keys, key(ix.leases[i].start, newEventRef(kindDelegationStart, i)))
	}
	for i := range ix.leases {
		if end := ix.leases[i].end; end != zeroDay {
			keys = append(keys, key(end, newEventRef(kindDelegationEnd, i)))
		}
	}
	slices.Sort(keys)
	ix.events = make([]eventRef, n)
	for i, k := range keys {
		ix.events[i] = eventRef(k)
	}
}

// eventDay returns the day of event r.
func (ix *Index) eventDay(r eventRef) int32 {
	switch r.kind() {
	case kindTransfer:
		return ix.xfers[r.row()].date
	case kindDelegationStart:
		return ix.leases[r.row()].start
	}
	return ix.leases[r.row()].end
}

// event renders event r.
func (ix *Index) event(r eventRef) Event {
	if r.kind() == kindTransfer {
		t := &ix.xfers[r.row()]
		return Event{
			Date: dateOf(t.date), Kind: EventTransfer, Prefix: t.prefix,
			From: ix.strs.at(t.from), To: ix.strs.at(t.to),
			FromRIR: registry.RIR(t.fromRIR), ToRIR: registry.RIR(t.toRIR),
			Type: ix.strs.at(t.typ), PricePerAddr: t.price,
		}
	}
	l := &ix.leases[r.row()]
	e := Event{
		Date: dateOf(l.start), Kind: EventDelegationStart, Prefix: l.child,
		Parent: l.parent, FromAS: l.fromAS, ToAS: l.toAS,
	}
	if r.kind() == kindDelegationEnd {
		e.Date, e.Kind = dateOf(l.end), EventDelegationEnd
	}
	return e
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
	for i := range ix.xfers {
		t := &ix.xfers[i]
		q := stats.QuarterOf(dateOf(t.date))
		a := byQuarter[q]
		if a == nil {
			a = &agg{}
			byQuarter[q] = a
			order = append(order, q)
		}
		a.transfers++
		a.addrs += t.prefix.NumAddrs()
		if t.price > 0 {
			if a.priced == 0 || t.price < a.min {
				a.min = t.price
			}
			if t.price > a.max {
				a.max = t.price
			}
			a.priced++
			a.sum += t.price
		}
	}
	stats.SortQuarters(order)
	ix.quarters = make([]QuarterPrices, 0, len(order))
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

// Input returns a copy of the normalized input the index was built from,
// rendered from its columns. NaiveAt over this copy is the reference the
// index must agree with.
func (ix *Index) Input() Input {
	out := Input{
		Start:       dateOf(ix.start),
		End:         dateOf(ix.end),
		Allocations: make([]AllocationRecord, len(ix.allocs)),
		Transfers:   make([]TransferRecord, len(ix.xfers)),
		Leases:      make([]LeaseRecord, len(ix.leases)),
	}
	for i := range ix.allocs {
		a := &ix.allocs[i]
		out.Allocations[i] = AllocationRecord{
			Prefix: ix.blocks.prefixes[i], Org: ix.strs.at(a.org), RIR: registry.RIR(a.rir),
			Date: dateOf(a.date), Status: ix.strs.at(a.status),
		}
	}
	for i := range ix.xfers {
		t := &ix.xfers[i]
		out.Transfers[i] = TransferRecord{
			Prefix: t.prefix, From: ix.strs.at(t.from), To: ix.strs.at(t.to),
			FromRIR: registry.RIR(t.fromRIR), ToRIR: registry.RIR(t.toRIR),
			Type: ix.strs.at(t.typ), Date: dateOf(t.date), PricePerAddr: t.price,
		}
	}
	for i := range ix.leases {
		out.Leases[i] = LeaseRecord(delegation(&ix.leases[i]))
	}
	return out
}

// Start returns the first queryable date (inclusive).
func (ix *Index) Start() time.Time { return dateOf(ix.start) }

// End returns the epoch end (exclusive): the first date that is NOT
// queryable.
func (ix *Index) End() time.Time { return dateOf(ix.end) }

// Contains reports whether d falls inside the queryable epoch [Start, End).
func (ix *Index) Contains(d time.Time) bool {
	dn := queryDay(d)
	return dn >= ix.start && dn < ix.end
}

// EventCount returns the number of entries in the merged event stream.
func (ix *Index) EventCount() int { return len(ix.events) }

// SpanCount returns the number of holding spans: one per block, plus one
// per transfer of its chain.
func (ix *Index) SpanCount() int { return len(ix.allocs) + len(ix.chains) }

// DelegationCount returns the number of delegation spans.
func (ix *Index) DelegationCount() int { return len(ix.leases) }

// EpochCount returns the number of delegation-epoch partitions.
func (ix *Index) EpochCount() int { return len(ix.epochStarts) }

// SizeBytes returns the bytes the index's columns and string table hold,
// from their capacities alone: what the index keeps on the heap, less
// the Index value and the allocator's rounding, found without walking
// the heap.
func (ix *Index) SizeBytes() int {
	return len(ix.strs.blob) + colBytes(ix.strs.off) +
		colBytes(ix.blocks.prefixes) + colBytes(ix.blocks.parent) +
		colBytes(ix.allocs) + colBytes(ix.xfers) + colBytes(ix.leases) +
		colBytes(ix.chainLo) + colBytes(ix.chains) +
		colBytes(ix.children.prefixes) + colBytes(ix.children.parent) + colBytes(ix.childLo) +
		colBytes(ix.epochStarts) + colBytes(ix.epochLo) + colBytes(ix.epochIDs) +
		colBytes(ix.events) + colBytes(ix.quarters)
}

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
