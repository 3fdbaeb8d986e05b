package registry

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"ipv4market/internal/netblock"
)

// OrgID identifies an organization (LIR or end user) across the system.
type OrgID string

// Sentinel errors callers branch on.
var (
	ErrPoolEmpty       = errors.New("registry: free pool cannot satisfy request")
	ErrWaitingList     = errors.New("registry: request queued on waiting list")
	ErrWaitingListFull = errors.New("registry: waiting list full")
	ErrNotMember       = errors.New("registry: organization is not a member of this RIR")
	ErrNotHolder       = errors.New("registry: organization does not hold this prefix")
	ErrMarketClosed    = errors.New("registry: transfer market not open in this region")
	ErrPolicy          = errors.New("registry: policy violation")
)

// AllocationStatus mirrors the status column of delegated-extended files.
type AllocationStatus string

// Allocation statuses.
const (
	StatusAllocated AllocationStatus = "allocated"
	StatusAssigned  AllocationStatus = "assigned"
	StatusLegacy    AllocationStatus = "legacy"
	StatusReserved  AllocationStatus = "reserved"
)

// Allocation is a block of address space delegated by an RIR to an
// organization.
type Allocation struct {
	Prefix  netblock.Prefix
	RIR     RIR // the RIR currently maintaining the block (footnote 1)
	Org     OrgID
	Country string
	Date    time.Time // date of (re-)delegation
	Status  AllocationStatus
}

// LIR is an RIR member record.
type LIR struct {
	Org     OrgID
	RIR     RIR
	Country string
	Joined  time.Time
	// FinalBlockGranted marks that the LIR already received its one
	// soft-landing block (e.g. RIPE's one-/22-per-LIR rule).
	FinalBlockGranted bool
}

// WaitingRequest is an approved but unfulfilled request.
type WaitingRequest struct {
	Org       OrgID
	Bits      int
	Requested time.Time
}

type quarantined struct {
	prefix  netblock.Prefix
	release time.Time
}

type rirState struct {
	pool       *netblock.Set
	quarantine []quarantined
	waiting    []WaitingRequest
	members    map[OrgID]*LIR
}

// Registry is the full five-RIR system. It is not safe for concurrent use.
type Registry struct {
	rirs   map[RIR]*rirState
	allocs *netblock.Trie[*Allocation]

	transfers []Transfer
}

// NewRegistry returns a registry with empty pools and no members.
func NewRegistry() *Registry {
	r := &Registry{
		rirs:   make(map[RIR]*rirState, numRIRs),
		allocs: netblock.NewTrie[*Allocation](),
	}
	for _, rir := range AllRIRs() {
		r.rirs[rir] = &rirState{
			pool:    netblock.NewSet(),
			members: make(map[OrgID]*LIR),
		}
	}
	return r
}

// SeedPool adds unallocated address space to an RIR's free pool (modeling
// the historical IANA allocations).
func (r *Registry) SeedPool(rir RIR, p netblock.Prefix) {
	r.rirs[rir].pool.AddPrefix(p)
}

// PoolSize returns the number of addresses in the RIR's free pool.
func (r *Registry) PoolSize(rir RIR) uint64 { return r.rirs[rir].pool.Size() }

// RegisterLIR makes org a member of the RIR. Registering twice is a no-op
// returning the existing record.
func (r *Registry) RegisterLIR(org OrgID, rir RIR, country string, joined time.Time) *LIR {
	st := r.rirs[rir]
	if m, ok := st.members[org]; ok {
		return m
	}
	m := &LIR{Org: org, RIR: rir, Country: country, Joined: joined}
	st.members[org] = m
	return m
}

// Member returns the LIR record for org at the RIR.
func (r *Registry) Member(rir RIR, org OrgID) (*LIR, bool) {
	m, ok := r.rirs[rir].members[org]
	return m, ok
}

// NumMembers returns the RIR's membership count.
func (r *Registry) NumMembers(rir RIR) int { return len(r.rirs[rir].members) }

// takeBlock carves a block of exactly the given prefix length out of the
// set, preferring the lowest-addressed fit. It reports failure if no block
// of that size is free.
func takeBlock(pool *netblock.Set, bits int) (netblock.Prefix, bool) {
	for _, p := range pool.Prefixes() {
		if p.Bits() <= bits {
			// Carve the lowest /bits out of p.
			block := netblock.MustPrefix(p.Addr(), bits)
			pool.RemovePrefix(block)
			return block, true
		}
	}
	return netblock.Prefix{}, false
}

// Allocate requests a block of the given prefix length for org from the
// RIR at time t, applying the phase policy:
//
//   - normal: the request is granted at the requested size if the pool can
//     satisfy it;
//   - soft landing: the size is clamped to MaxAssignmentBits, and each LIR
//     receives at most one final block;
//   - depleted: the request is clamped and joins the waiting list unless
//     recovered space is already available.
//
// On waiting-list admission the returned error is ErrWaitingList (the
// request is queued; a later ProcessQuarantine may fulfill it).
func (r *Registry) Allocate(rir RIR, org OrgID, bits int, t time.Time) (*Allocation, error) {
	st := r.rirs[rir]
	m, ok := st.members[org]
	if !ok {
		return nil, fmt.Errorf("%w: %s at %s", ErrNotMember, org, rir)
	}
	phase := PhaseAt(rir, t)
	maxBits := MaxAssignmentBits(rir, t)
	if bits < maxBits {
		bits = maxBits // clamp to the largest size policy allows
	}
	if bits > 24 && phase != PhaseNormal {
		bits = 24 // RIRs do not allocate smaller than /24
	}

	switch phase {
	case PhaseNormal:
		return r.grant(rir, org, bits, t)
	case PhaseSoftLanding:
		if m.FinalBlockGranted {
			return nil, fmt.Errorf("%w: %s already received its final soft-landing block", ErrPolicy, org)
		}
		a, err := r.grant(rir, org, bits, t)
		if err == nil {
			m.FinalBlockGranted = true
		}
		return a, err
	default: // PhaseDepleted
		if a, err := r.grant(rir, org, bits, t); err == nil {
			return a, nil
		}
		limit := WaitingListLimit(rir)
		if limit == 0 || len(st.waiting) >= limit {
			return nil, ErrWaitingListFull
		}
		st.waiting = append(st.waiting, WaitingRequest{Org: org, Bits: bits, Requested: t})
		return nil, ErrWaitingList
	}
}

func (r *Registry) grant(rir RIR, org OrgID, bits int, t time.Time) (*Allocation, error) {
	st := r.rirs[rir]
	block, ok := takeBlock(st.pool, bits)
	if !ok {
		return nil, ErrPoolEmpty
	}
	m := st.members[org]
	a := &Allocation{
		Prefix:  block,
		RIR:     rir,
		Org:     org,
		Country: m.Country,
		Date:    t,
		Status:  StatusAllocated,
	}
	r.allocs.Insert(block, a)
	return a, nil
}

// RegisterLegacy records a pre-RIR ("legacy") assignment: address space
// Jon Postel handed out before the registry framework existed. The block
// is booked under the maintaining RIR's statistics with legacy status,
// but the holder need not be a member and no pool space is consumed (the
// space was never in an RIR pool). It fails if the block overlaps
// existing allocations or pool space.
func (r *Registry) RegisterLegacy(rir RIR, org OrgID, p netblock.Prefix, country string, t time.Time) (*Allocation, error) {
	if _, a, ok := r.allocs.LongestMatch(p); ok {
		return nil, fmt.Errorf("%w: %v overlaps allocation %v", ErrPolicy, p, a.Prefix)
	}
	if sub := r.allocs.CoveredBy(p); len(sub) > 0 {
		return nil, fmt.Errorf("%w: %v covers allocation %v", ErrPolicy, p, sub[0].Prefix)
	}
	if r.rirs[rir].pool.OverlapsPrefix(p) {
		return nil, fmt.Errorf("%w: %v overlaps the %s free pool", ErrPolicy, p, rir)
	}
	a := &Allocation{
		Prefix:  p,
		RIR:     rir,
		Org:     org,
		Country: country,
		Date:    t,
		Status:  StatusLegacy,
	}
	r.allocs.Insert(p, a)
	return a, nil
}

// Holder returns the allocation exactly covering prefix p, if any.
func (r *Registry) Holder(p netblock.Prefix) (*Allocation, bool) {
	return r.allocs.Get(p)
}

// HolderOf returns the most specific allocation covering p.
func (r *Registry) HolderOf(p netblock.Prefix) (*Allocation, bool) {
	_, a, ok := r.allocs.LongestMatch(p)
	return a, ok
}

// Allocations returns every live allocation, in prefix order.
func (r *Registry) Allocations() []*Allocation {
	out := make([]*Allocation, 0, r.allocs.Len())
	r.allocs.Walk(func(_ netblock.Prefix, a *Allocation) bool {
		out = append(out, a)
		return true
	})
	return out
}

// AllocationsOf returns org's live allocations at the given RIR.
func (r *Registry) AllocationsOf(rir RIR, org OrgID) []*Allocation {
	var out []*Allocation
	r.allocs.Walk(func(_ netblock.Prefix, a *Allocation) bool {
		if a.RIR == rir && a.Org == org {
			out = append(out, a)
		}
		return true
	})
	return out
}

// Recover reclaims an allocated block (member closed down or assignment
// criteria no longer hold) and places it in quarantine until t +
// QuarantinePeriod.
func (r *Registry) Recover(p netblock.Prefix, t time.Time) error {
	a, ok := r.allocs.Get(p)
	if !ok {
		return fmt.Errorf("%w: %v", ErrNotHolder, p)
	}
	r.allocs.Delete(p)
	st := r.rirs[a.RIR]
	st.quarantine = append(st.quarantine, quarantined{prefix: p, release: t.Add(QuarantinePeriod)})
	return nil
}

// QuarantineSize returns the number of addresses resting in the RIR's
// quarantine.
func (r *Registry) QuarantineSize(rir RIR) uint64 {
	var n uint64
	for _, q := range r.rirs[rir].quarantine {
		n += q.prefix.NumAddrs()
	}
	return n
}

// WaitingListLen returns the number of queued requests at the RIR.
func (r *Registry) WaitingListLen(rir RIR) int { return len(r.rirs[rir].waiting) }

// ProcessQuarantine releases matured quarantine blocks into the free pool
// and then serves the waiting list first-come-first-served. It returns the
// allocations made while draining the list.
func (r *Registry) ProcessQuarantine(rir RIR, t time.Time) []*Allocation {
	st := r.rirs[rir]
	var rest []quarantined
	for _, q := range st.quarantine {
		if q.release.After(t) {
			rest = append(rest, q)
			continue
		}
		st.pool.AddPrefix(q.prefix)
	}
	st.quarantine = rest

	var made []*Allocation
	var unfulfilled []WaitingRequest
	for _, req := range st.waiting {
		a, err := r.grant(rir, req.Org, req.Bits, t)
		if err != nil {
			unfulfilled = append(unfulfilled, req)
			continue
		}
		made = append(made, a)
	}
	st.waiting = unfulfilled
	return made
}

// TransferType distinguishes market transfers from company consolidation.
type TransferType string

// Transfer types, matching the RIR transfer-log vocabulary.
const (
	TypeMarket TransferType = "RESOURCE_TRANSFER"
	TypeMerger TransferType = "MERGER_ACQUISITION"
)

// Transfer is one completed resource transfer.
type Transfer struct {
	Prefix  netblock.Prefix
	From    OrgID
	To      OrgID
	FromRIR RIR
	ToRIR   RIR
	Type    TransferType
	Date    time.Time
	// PricePerAddr is the agreed USD price per address; zero for M&A
	// transfers and unknown deals. This field never appears in the public
	// logs — it models the brokers' private books.
	PricePerAddr float64
}

// IsInterRIR reports whether the transfer crossed registry boundaries.
func (t Transfer) IsInterRIR() bool { return t.FromRIR != t.ToRIR }

// ExecuteTransfer moves prefix p (or a sub-block of an allocation: the
// allocation is split automatically) from one organization to another. For
// inter-RIR transfers the receiving RIR takes over maintenance of the
// block, per the common APNIC/ARIN/RIPE policy; other RIR pairs are
// rejected. The recipient must already be a member of toRIR.
func (r *Registry) ExecuteTransfer(p netblock.Prefix, from, to OrgID, toRIR RIR, typ TransferType, pricePerAddr float64, t time.Time) (*Transfer, error) {
	a, ok := r.allocs.Get(p)
	if !ok {
		// The transferred block may be a sub-block of a larger allocation.
		_, parent, found := r.allocs.LongestMatch(p)
		if !found || parent.Org != from {
			return nil, fmt.Errorf("%w: %s does not hold %v", ErrNotHolder, from, p)
		}
		if err := r.splitAllocation(parent, p); err != nil {
			return nil, err
		}
		a, _ = r.allocs.Get(p)
	}
	if a.Org != from {
		return nil, fmt.Errorf("%w: %s does not hold %v", ErrNotHolder, from, p)
	}
	fromRIR := a.RIR
	if !TransferMarketOpen(fromRIR, t) && typ == TypeMarket {
		return nil, fmt.Errorf("%w: %s market closed at %s", ErrMarketClosed, fromRIR, t.Format("2006-01-02"))
	}
	if fromRIR != toRIR && !InterRIRAllowed(fromRIR, toRIR) {
		return nil, fmt.Errorf("%w: inter-RIR transfer %s → %s not permitted", ErrPolicy, fromRIR, toRIR)
	}
	if _, ok := r.rirs[toRIR].members[to]; !ok {
		return nil, fmt.Errorf("%w: recipient %s at %s", ErrNotMember, to, toRIR)
	}

	a.Org = to
	a.RIR = toRIR
	a.Country = r.rirs[toRIR].members[to].Country
	a.Date = t
	tr := Transfer{
		Prefix: p, From: from, To: to,
		FromRIR: fromRIR, ToRIR: toRIR,
		Type: typ, Date: t, PricePerAddr: pricePerAddr,
	}
	r.transfers = append(r.transfers, tr)
	return &tr, nil
}

// splitAllocation replaces parent's allocation with allocations for the
// minimal set of blocks covering parent minus target, plus target itself.
func (r *Registry) splitAllocation(parent *Allocation, target netblock.Prefix) error {
	if !parent.Prefix.Covers(target) {
		return fmt.Errorf("%w: %v does not cover %v", ErrPolicy, parent.Prefix, target)
	}
	r.allocs.Delete(parent.Prefix)
	rem := netblock.NewSet(parent.Prefix)
	rem.RemovePrefix(target)
	for _, q := range rem.Prefixes() {
		cp := *parent
		cp.Prefix = q
		r.allocs.Insert(q, &cp)
	}
	tgt := *parent
	tgt.Prefix = target
	r.allocs.Insert(target, &tgt)
	return nil
}

// Transfers returns all completed transfers in execution order.
func (r *Registry) Transfers() []Transfer {
	return append([]Transfer(nil), r.transfers...)
}

// NumTransfers returns the number of completed transfers.
func (r *Registry) NumTransfers() int { return len(r.transfers) }

// TransferAt returns completed transfer i, in execution order, for i in
// [0, NumTransfers()). Unlike Transfers it copies no log.
func (r *Registry) TransferAt(i int) Transfer { return r.transfers[i] }

// TransfersIn returns transfers dated within [from, to), sorted by date.
func (r *Registry) TransfersIn(from, to time.Time) []Transfer {
	var out []Transfer
	for _, tr := range r.transfers {
		if !tr.Date.Before(from) && tr.Date.Before(to) {
			out = append(out, tr)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Date.Before(out[j].Date) })
	return out
}
