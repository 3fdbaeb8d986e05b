package serve

import (
	"slices"
	"sort"
	"time"

	"ipv4market/internal/delegation"
	"ipv4market/internal/netblock"
)

// DelegationIndex is an immutable per-prefix index over one day's
// inferred delegations (the extended algorithm on the final day of the
// routing window): the delegations in one slice ordered by child prefix
// (Prefix.Compare; delegations of one child keep their inferred order),
// which is also the order _state/delegations stores them in. It is
// built once at snapshot time; afterwards all methods are read-only, so
// the index may be shared by any number of concurrent request handlers.
type DelegationIndex struct {
	date time.Time
	ds   []delegation.Delegation
}

// newDelegationIndex indexes an inferred delegation list, sorting ds in
// place; the index keeps ds.
func newDelegationIndex(date time.Time, ds []delegation.Delegation) *DelegationIndex {
	slices.SortStableFunc(ds, func(a, b delegation.Delegation) int { return a.Child.Compare(b.Child) })
	return &DelegationIndex{date: date, ds: ds}
}

// Date returns the routing-window day the index was inferred for.
func (ix *DelegationIndex) Date() time.Time { return ix.date }

// Len returns the number of indexed delegations.
func (ix *DelegationIndex) Len() int { return len(ix.ds) }

// Lookup describes the delegations related to one queried prefix.
type Lookup struct {
	Prefix netblock.Prefix
	// Exact are delegations whose child is precisely the queried prefix.
	Exact []delegation.Delegation
	// Covering are delegations of less-specific children containing the
	// queried prefix, ordered least- to most-specific.
	Covering []delegation.Delegation
	// Covered are delegations of strictly more-specific children inside
	// the queried prefix, in address order.
	Covered []delegation.Delegation
}

// Lookup returns every indexed delegation that exactly matches, covers,
// or is covered by p. Each answer is a binary search: a covering child
// is p masked to a shorter length, and the children p covers follow p
// in the index, up to the first child past p's last address.
func (ix *DelegationIndex) Lookup(p netblock.Prefix) Lookup {
	res := Lookup{Prefix: p}
	for bits := 0; bits < p.Bits(); bits++ {
		lo, hi := ix.children(netblock.MustPrefix(p.Addr(), bits))
		res.Covering = append(res.Covering, ix.ds[lo:hi]...)
	}
	lo, hi := ix.children(p)
	res.Exact = append(res.Exact, ix.ds[lo:hi]...)
	rest := ix.ds[hi:]
	end := sort.Search(len(rest), func(i int) bool { return rest[i].Child.Addr() > p.Last() })
	res.Covered = append(res.Covered, rest[:end]...)
	return res
}

// children returns the index range [lo, hi) of the delegations whose
// child is exactly p.
func (ix *DelegationIndex) children(p netblock.Prefix) (lo, hi int) {
	lo, _ = slices.BinarySearchFunc(ix.ds, p, func(d delegation.Delegation, p netblock.Prefix) int { return d.Child.Compare(p) })
	hi = lo
	for hi < len(ix.ds) && ix.ds[hi].Child == p {
		hi++
	}
	return lo, hi
}
