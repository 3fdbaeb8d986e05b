package serve

import (
	"slices"
	"testing"
	"time"

	"ipv4market/internal/delegation"
	"ipv4market/internal/netblock"
	"ipv4market/internal/simulation"
)

// scanLookup is the linear-scan reference for DelegationIndex.Lookup:
// every delegation tested against p, in index order, with the covering
// ones then ordered least- to most-specific (stable, so delegations of
// one child keep their index order).
func scanLookup(ds []delegation.Delegation, p netblock.Prefix) Lookup {
	res := Lookup{Prefix: p}
	for _, d := range ds {
		switch {
		case d.Child == p:
			res.Exact = append(res.Exact, d)
		case d.Child.CoversStrictly(p):
			res.Covering = append(res.Covering, d)
		case p.CoversStrictly(d.Child):
			res.Covered = append(res.Covered, d)
		}
	}
	slices.SortStableFunc(res.Covering, func(a, b delegation.Delegation) int { return a.Child.Bits() - b.Child.Bits() })
	return res
}

// checkLookups compares ix.Lookup with the linear scan for every indexed
// child, its /8 and /16, and a /32 inside it: membership and order of
// the exact, covering and covered answers.
func checkLookups(t *testing.T, ix *DelegationIndex) {
	t.Helper()
	if ix.Len() == 0 {
		t.Fatal("empty delegation index")
	}
	if !slices.IsSortedFunc(ix.ds, func(a, b delegation.Delegation) int { return a.Child.Compare(b.Child) }) {
		t.Fatal("index list is not in child-prefix order")
	}
	for _, d := range ix.ds {
		c := d.Child
		last := netblock.MustPrefix(c.Last(), 32)
		for _, p := range []netblock.Prefix{c, netblock.MustPrefix(c.Addr(), 8), netblock.MustPrefix(c.Addr(), 16), last} {
			got, want := ix.Lookup(p), scanLookup(ix.ds, p)
			for _, part := range []struct {
				name      string
				got, want []delegation.Delegation
			}{{"exact", got.Exact, want.Exact}, {"covering", got.Covering, want.Covering}, {"covered", got.Covered, want.Covered}} {
				if !slices.Equal(part.got, part.want) {
					t.Fatalf("Lookup(%v) %s:\n got %v\nwant %v", p, part.name, part.got, part.want)
				}
			}
		}
	}
}

// TestDelegationLookupMatchesScan holds the binary-search lookup to the
// linear scan on a hand-made list with nested children, repeated
// children and a /0, and on the delegations of the test world and of
// the DefaultConfig world marketd serves.
func TestDelegationLookupMatchesScan(t *testing.T) {
	pfx := netblock.MustParsePrefix
	var made []delegation.Delegation
	for i, s := range []string{
		"10.1.0.0/16", "10.0.0.0/8", "10.1.2.0/24", "10.1.0.0/16", "0.0.0.0/0",
		"10.1.2.128/25", "10.1.3.0/24", "11.0.0.0/8", "10.1.2.0/24", "10.255.255.255/32",
	} {
		made = append(made, delegation.Delegation{Parent: pfx("0.0.0.0/0"), Child: pfx(s), From: 1, To: delegation.ASN(100 + i)})
	}
	ix := newDelegationIndex(time.Time{}, made)
	if ix.Len() != 10 {
		t.Fatalf("Len = %d, want 10", ix.Len())
	}
	// Repeated children keep their input order.
	if lk := ix.Lookup(pfx("10.1.0.0/16")); len(lk.Exact) != 2 || lk.Exact[0].To != 100 || lk.Exact[1].To != 103 {
		t.Fatalf("exact 10.1.0.0/16 = %v, want To 100 then 103", lk.Exact)
	}
	checkLookups(t, ix)

	checkLookups(t, sharedServer(t).Snapshot().Delegations)
	if testing.Short() {
		return
	}
	snap, err := BuildSnapshotOpts(simulation.DefaultConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	checkLookups(t, snap.Delegations)
}
