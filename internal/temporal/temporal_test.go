package temporal

import (
	"bytes"
	"reflect"
	"sort"
	"testing"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/simulation"
	"ipv4market/internal/stats"
)

func pfx(t testing.TB, s string) netblock.Prefix {
	t.Helper()
	p, err := netblock.ParsePrefix(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func onDay(t testing.TB, s string) time.Time {
	t.Helper()
	d, err := parseDay(s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// fixtureInput is a small hand-written history exercising every span shape:
// a transferred block (market then merger), legacy space predating the
// epoch, a plain allocation, and overlapping delegations (one closed, one
// open-ended).
func fixtureInput(t testing.TB) Input {
	return Input{
		Start: onDay(t, "2005-01-01"),
		End:   onDay(t, "2020-07-01"),
		Allocations: []AllocationRecord{
			{Prefix: pfx(t, "10.0.0.0/16"), Org: "C", RIR: registry.ARIN, Date: onDay(t, "2016-06-15"), Status: "allocated"},
			{Prefix: pfx(t, "20.0.0.0/8"), Org: "L", RIR: registry.ARIN, Date: onDay(t, "1985-01-01"), Status: "legacy"},
			{Prefix: pfx(t, "30.0.0.0/16"), Org: "X", RIR: registry.RIPENCC, Date: onDay(t, "2010-05-10"), Status: "allocated"},
		},
		Transfers: []TransferRecord{
			{Prefix: pfx(t, "10.0.0.0/16"), From: "A", To: "B", FromRIR: registry.ARIN, ToRIR: registry.ARIN,
				Type: string(registry.TypeMarket), Date: onDay(t, "2013-03-01"), PricePerAddr: 8},
			{Prefix: pfx(t, "10.0.0.0/16"), From: "B", To: "C", FromRIR: registry.ARIN, ToRIR: registry.ARIN,
				Type: string(registry.TypeMerger), Date: onDay(t, "2016-06-15")},
		},
		Leases: []LeaseRecord{
			{Parent: pfx(t, "20.0.0.0/8"), Child: pfx(t, "20.1.0.0/24"), FromAS: 100, ToAS: 200,
				Start: onDay(t, "2018-01-01"), End: onDay(t, "2019-01-01")},
			{Parent: pfx(t, "20.0.0.0/8"), Child: pfx(t, "20.1.0.0/16"), FromAS: 100, ToAS: 300,
				Start: onDay(t, "2018-06-01")},
		},
	}
}

func mustNew(t testing.TB, in Input) *Index {
	t.Helper()
	ix, err := New(in)
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestHolderReconstruction(t *testing.T) {
	ix := mustNew(t, fixtureInput(t))
	block := pfx(t, "10.0.0.0/16")

	cases := []struct {
		date    string
		org     string
		via     Acquisition
		price   float64
		noState bool
	}{
		{date: "2005-01-01", org: "A", via: ViaOrigin},           // reconstructed pre-transfer holder
		{date: "2013-02-28", org: "A", via: ViaOrigin},           // day before the first transfer
		{date: "2013-03-01", org: "B", via: ViaMarket, price: 8}, // exactly on the event date
		{date: "2016-06-14", org: "B", via: ViaMarket, price: 8}, // day before the second
		{date: "2016-06-15", org: "C", via: ViaMerger},           // merger, unpriced
		{date: "2020-06-30", org: "C", via: ViaMerger},           // last queryable day
	}
	for _, c := range cases {
		res := ix.At(block, onDay(t, c.date))
		if res.Holder == nil {
			t.Fatalf("At(%v, %s): no holder", block, c.date)
		}
		h := res.Holder
		if h.Org != c.org || h.Via != c.via || h.PricePerAddr != c.price || h.Block != block {
			t.Errorf("At(%v, %s) = org=%q via=%q price=%v block=%v, want org=%q via=%q price=%v",
				block, c.date, h.Org, h.Via, h.PricePerAddr, h.Block, c.org, c.via, c.price)
		}
	}

	// A more-specific query resolves to the covering indexed block.
	res := ix.At(pfx(t, "10.0.128.0/24"), onDay(t, "2014-01-01"))
	if res.Holder == nil || res.Holder.Org != "B" || res.Holder.Block != block {
		t.Errorf("more-specific lookup = %+v, want holder B of %v", res.Holder, block)
	}

	// Legacy space keeps its true (pre-epoch) origin date.
	res = ix.At(pfx(t, "20.0.0.0/8"), onDay(t, "2005-01-01"))
	if res.Holder == nil || res.Holder.Org != "L" || !res.Holder.Since.Equal(onDay(t, "1985-01-01")) {
		t.Errorf("legacy lookup = %+v, want L since 1985-01-01", res.Holder)
	}

	// Before an untransferred block's allocation date: not yet held.
	if res := ix.At(pfx(t, "30.0.0.0/16"), onDay(t, "2010-05-09")); res.Holder != nil {
		t.Errorf("lookup before allocation date answered holder %+v", res.Holder)
	}
	if res := ix.At(pfx(t, "30.0.0.0/16"), onDay(t, "2010-05-10")); res.Holder == nil || res.Holder.Org != "X" {
		t.Errorf("lookup on allocation date = %+v, want X", res.Holder)
	}

	// A prefix no indexed block covers.
	if res := ix.At(pfx(t, "99.0.0.0/8"), onDay(t, "2015-01-01")); res.Holder != nil {
		t.Errorf("uncovered prefix answered holder %+v", res.Holder)
	}
}

func TestSameDayChainOrdering(t *testing.T) {
	in := Input{
		Start: onDay(t, "2005-01-01"),
		End:   onDay(t, "2020-07-01"),
		Allocations: []AllocationRecord{
			{Prefix: pfx(t, "10.0.0.0/16"), Org: "C", RIR: registry.ARIN, Date: onDay(t, "2015-01-01")},
		},
		Transfers: []TransferRecord{
			{Prefix: pfx(t, "10.0.0.0/16"), From: "A", To: "B", FromRIR: registry.ARIN, ToRIR: registry.ARIN,
				Type: string(registry.TypeMarket), Date: onDay(t, "2015-01-01"), PricePerAddr: 7},
			{Prefix: pfx(t, "10.0.0.0/16"), From: "B", To: "C", FromRIR: registry.ARIN, ToRIR: registry.ARIN,
				Type: string(registry.TypeMerger), Date: onDay(t, "2015-01-01")},
		},
	}
	ix := mustNew(t, in)
	p := pfx(t, "10.0.0.0/16")

	// On the chain date the log order decides: C holds at end of day.
	if res := ix.At(p, onDay(t, "2015-01-01")); res.Holder == nil || res.Holder.Org != "C" {
		t.Fatalf("same-day chain At = %+v, want C", res.Holder)
	}
	if res := ix.At(p, onDay(t, "2014-12-31")); res.Holder == nil || res.Holder.Org != "A" {
		t.Fatalf("day before chain At = %+v, want A", res.Holder)
	}

	// The timeline retains the zero-length intermediate span.
	tl := ix.Timeline(p)
	if len(tl.Holders) != 3 {
		t.Fatalf("timeline has %d spans, want 3 (incl. zero-length)", len(tl.Holders))
	}
	mid := tl.Holders[1]
	if mid.Org != "B" || !mid.Start.Equal(mid.End) {
		t.Errorf("middle span = %+v, want zero-length span held by B", mid)
	}
}

func TestDelegationsAt(t *testing.T) {
	ix := mustNew(t, fixtureInput(t))
	child24, child16 := pfx(t, "20.1.0.0/24"), pfx(t, "20.1.0.0/16")

	res := ix.At(child24, onDay(t, "2018-06-01"))
	if len(res.Exact) != 1 || res.Exact[0].ToAS != 200 {
		t.Errorf("Exact = %+v, want the /24 lease", res.Exact)
	}
	if len(res.Covering) != 1 || res.Covering[0].Child != child16 {
		t.Errorf("Covering = %+v, want the /16 lease", res.Covering)
	}
	if len(res.Covered) != 0 {
		t.Errorf("Covered = %+v, want none", res.Covered)
	}

	// On the /24 lease's end date it is gone ([Start, End) is half-open).
	res = ix.At(child24, onDay(t, "2019-01-01"))
	if len(res.Exact) != 0 {
		t.Errorf("lease active on its end date: %+v", res.Exact)
	}
	if len(res.Covering) != 1 {
		t.Errorf("open-ended covering lease missing: %+v", res.Covering)
	}

	// From the /16's point of view the /24 is a covered delegation.
	res = ix.At(child16, onDay(t, "2018-07-01"))
	if len(res.Exact) != 1 || res.Exact[0].ToAS != 300 {
		t.Errorf("Exact = %+v, want the /16 lease", res.Exact)
	}
	if len(res.Covered) != 1 || res.Covered[0].Child != child24 {
		t.Errorf("Covered = %+v, want the /24 lease", res.Covered)
	}

	// Before any delegation started: nothing.
	res = ix.At(child24, onDay(t, "2017-12-31"))
	if len(res.Exact)+len(res.Covering)+len(res.Covered) != 0 {
		t.Errorf("delegations before first event: %+v", res)
	}
}

func TestDiffWindow(t *testing.T) {
	ix := mustNew(t, fixtureInput(t))

	// (from, to]: the first transfer date as `from` excludes it.
	evs := ix.Diff(onDay(t, "2013-03-01"), onDay(t, "2016-06-15"))
	if len(evs) != 1 || evs[0].Kind != EventTransfer || evs[0].To != "C" {
		t.Fatalf("Diff(2013-03-01, 2016-06-15) = %+v, want only the B→C transfer", evs)
	}

	// A window over the delegation churn sees starts and the /24 end.
	evs = ix.Diff(onDay(t, "2017-12-31"), onDay(t, "2019-01-01"))
	kinds := map[EventKind]int{}
	for _, e := range evs {
		kinds[e.Kind]++
	}
	if kinds[EventDelegationStart] != 2 || kinds[EventDelegationEnd] != 1 {
		t.Fatalf("Diff kinds = %v, want 2 starts + 1 end", kinds)
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Date.Before(evs[i-1].Date) {
			t.Fatalf("Diff events out of date order: %v", evs)
		}
	}

	if evs := ix.Diff(onDay(t, "2014-01-01"), onDay(t, "2014-01-01")); len(evs) != 0 {
		t.Errorf("empty window returned %d events", len(evs))
	}
}

func TestPriceContext(t *testing.T) {
	ix := mustNew(t, fixtureInput(t))

	qp, ok := ix.PriceContext(onDay(t, "2013-02-10"))
	if !ok || qp.Quarter != (stats.Quarter{Year: 2013, Q: 1}) {
		t.Fatalf("PriceContext(2013-02-10) = %+v ok=%v", qp, ok)
	}
	if qp.Transfers != 1 || qp.Priced != 1 || qp.MeanPrice != 8 || qp.MinPrice != 8 || qp.MaxPrice != 8 {
		t.Errorf("2013Q1 = %+v, want one priced transfer at 8", qp)
	}
	if qp.Addresses != pfx(t, "10.0.0.0/16").NumAddrs() {
		t.Errorf("2013Q1 moved %d addresses, want one /16", qp.Addresses)
	}

	qp, ok = ix.PriceContext(onDay(t, "2016-05-01"))
	if !ok || qp.Priced != 0 || qp.Transfers != 1 || qp.MeanPrice != 0 {
		t.Errorf("2016Q2 = %+v ok=%v, want one unpriced transfer", qp, ok)
	}

	if _, ok := ix.PriceContext(onDay(t, "2011-01-01")); ok {
		t.Error("quarter with no transfers reported price context")
	}
}

func TestNewValidatesInput(t *testing.T) {
	base := fixtureInput(t)

	bad := base
	bad.End = bad.Start
	if _, err := New(bad); err == nil {
		t.Error("New accepted an empty epoch")
	}

	bad = fixtureInput(t)
	bad.Allocations = append(bad.Allocations, bad.Allocations[0])
	if _, err := New(bad); err == nil {
		t.Error("New accepted a duplicate allocation")
	}

	bad = fixtureInput(t)
	bad.Transfers = append(bad.Transfers, TransferRecord{
		Prefix: pfx(t, "44.0.0.0/16"), From: "A", To: "B",
		Type: string(registry.TypeMarket), Date: onDay(t, "2014-01-01"),
	})
	if _, err := New(bad); err == nil {
		t.Error("New accepted a transfer with no final allocation")
	}

	bad = fixtureInput(t)
	bad.Allocations[0].Org = "NOT-C"
	if _, err := New(bad); err == nil {
		t.Error("New accepted a final holder contradicting the transfer chain")
	}
}

func TestRecordRestoreRoundTrip(t *testing.T) {
	ix := mustNew(t, fixtureInput(t))
	rec, err := ix.Record()
	if err != nil {
		t.Fatal(err)
	}
	got, err := Restore(rec)
	if err != nil {
		t.Fatal(err)
	}
	rec2, err := got.Record()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rec, rec2) {
		t.Error("Record bytes differ after a restore round trip")
	}

	for _, p := range []string{"10.0.0.0/16", "20.1.0.0/24", "30.0.0.0/16"} {
		for _, d := range []string{"2010-01-01", "2013-03-01", "2018-06-01", "2020-06-30"} {
			a, b := ix.At(pfx(t, p), onDay(t, d)), got.At(pfx(t, p), onDay(t, d))
			if !reflect.DeepEqual(a, b) {
				t.Errorf("At(%s, %s) differs after restore:\n  built:    %+v\n  restored: %+v", p, d, a, b)
			}
		}
		if a, b := ix.Timeline(pfx(t, p)), got.Timeline(pfx(t, p)); !reflect.DeepEqual(a, b) {
			t.Errorf("Timeline(%s) differs after restore", p)
		}
	}
	if !reflect.DeepEqual(ix.Quarters(), got.Quarters()) {
		t.Error("Quarters differ after restore")
	}
}

func TestRestoreRejectsBadRecords(t *testing.T) {
	for _, data := range []string{
		"not json",
		`{"version": 99}`,
		`{"version": 1, "start": "2005-01-01", "end": "soon"}`,
		`{"version": 1, "start": "2005-01-01", "end": "2020-07-01", "allocations": [{"prefix": "bogus"}]}`,
	} {
		if _, err := Restore([]byte(data)); err == nil {
			t.Errorf("Restore accepted %q", data)
		}
	}
}

// TestNewDeterministicUnderInputOrder proves normalization: allocation and
// lease order must not matter (transfer order is semantic and kept).
func TestNewDeterministicUnderInputOrder(t *testing.T) {
	a := fixtureInput(t)
	b := fixtureInput(t)
	for i, j := 0, len(b.Allocations)-1; i < j; i, j = i+1, j-1 {
		b.Allocations[i], b.Allocations[j] = b.Allocations[j], b.Allocations[i]
	}
	for i, j := 0, len(b.Leases)-1; i < j; i, j = i+1, j-1 {
		b.Leases[i], b.Leases[j] = b.Leases[j], b.Leases[i]
	}
	recA, err := mustNew(t, a).Record()
	if err != nil {
		t.Fatal(err)
	}
	recB, err := mustNew(t, b).Record()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recA, recB) {
		t.Error("Record bytes depend on input slice order")
	}
}

// worldInput maps a simulated world to the temporal event model the same
// way the serve layer does; the property test runs over a real history.
func worldInput(cfg simulation.Config, w *simulation.World) Input {
	in := Input{Start: cfg.HistoryStart, End: cfg.MarketEnd}
	for _, a := range w.Registry.Allocations() {
		in.Allocations = append(in.Allocations, AllocationRecord{
			Prefix: a.Prefix, Org: string(a.Org), RIR: a.RIR, Date: a.Date, Status: string(a.Status),
		})
	}
	for _, tr := range w.Registry.Transfers() {
		in.Transfers = append(in.Transfers, TransferRecord{
			Prefix: tr.Prefix, From: string(tr.From), To: string(tr.To),
			FromRIR: tr.FromRIR, ToRIR: tr.ToRIR, Type: string(tr.Type),
			Date: tr.Date, PricePerAddr: tr.PricePerAddr,
		})
	}
	for _, l := range w.Leases {
		in.Leases = append(in.Leases, LeaseRecord{
			Parent: l.Parent, Child: l.Child,
			FromAS: uint32(l.Provider.PrimaryAS()), ToAS: uint32(l.Customer.PrimaryAS()),
			Start: cfg.RoutingStart.AddDate(0, 0, l.StartDay),
			End:   cfg.RoutingStart.AddDate(0, 0, l.EndDay),
		})
	}
	return in
}

// canonicalize sorts a PointResult's delegation slices so index answers
// (trie walk order) and naive answers (scan order) compare structurally.
func canonicalize(r PointResult) PointResult {
	for _, s := range [][]DelegationSpan{r.Exact, r.Covering, r.Covered} {
		sort.Slice(s, func(i, j int) bool {
			a, b := s[i], s[j]
			if c := a.Child.Compare(b.Child); c != 0 {
				return c < 0
			}
			if !a.Start.Equal(b.Start) {
				return a.Start.Before(b.Start)
			}
			if a.FromAS != b.FromAS {
				return a.FromAS < b.FromAS
			}
			return a.ToAS < b.ToAS
		})
	}
	return r
}

// TestIndexMatchesNaiveReplay is the acceptance property test: over a real
// simulated history, for (prefix, date) pairs spanning every event
// boundary (the event's own prefix at the boundary, one day before, one
// day after) plus a cross-sample of prefixes and dates, the index answers
// exactly like a naive replay of the event log.
func TestIndexMatchesNaiveReplay(t *testing.T) {
	cfg := simulation.DefaultConfig()
	cfg.Seed = 7
	cfg.NumLIRs = 12
	cfg.RoutingDays = 120
	cfg.AdministrativeLeases = 60
	cfg.RoutedLeases = 30
	cfg.SmallAssignmentsPerLIR = 8
	w, err := simulation.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ix := mustNew(t, worldInput(cfg, w))
	in := ix.Input()
	t.Logf("world: %d allocations, %d transfers, %d leases, %d events",
		len(in.Allocations), len(in.Transfers), len(in.Leases), ix.EventCount())

	type pair struct {
		p netblock.Prefix
		d time.Time
	}
	var pairs []pair
	add := func(p netblock.Prefix, d time.Time) {
		if !d.Before(in.Start) && d.Before(in.End) {
			pairs = append(pairs, pair{p, d})
		}
	}

	// Every event boundary, probed at the boundary and one day either side.
	events := ix.Diff(in.Start.AddDate(0, 0, -1), in.End)
	if len(events) != ix.EventCount() {
		t.Fatalf("boundary sweep covers %d events, index holds %d", len(events), ix.EventCount())
	}
	for _, e := range events {
		for _, d := range []time.Time{e.Date.AddDate(0, 0, -1), e.Date, e.Date.AddDate(0, 0, 1)} {
			add(e.Prefix, d)
		}
	}

	// Cross-sample: a deterministic stride of allocation prefixes (plus a
	// more-specific child of each) against a spread of dates, including
	// the epoch edges.
	dates := []time.Time{in.Start, in.Start.AddDate(1, 0, 0), onDay(t, "2011-02-03"),
		onDay(t, "2015-07-01"), onDay(t, "2019-04-09"), in.End.AddDate(0, 0, -1)}
	for i := 0; i < len(in.Allocations); i += 97 {
		p := in.Allocations[i].Prefix
		for _, d := range dates {
			add(p, d)
			if p.Bits() <= 24 {
				if kid, err := netblock.PrefixFrom(p.Addr(), p.Bits()+2); err == nil {
					add(kid, d)
				}
			}
		}
	}
	// And a prefix nothing in the world covers.
	for _, d := range dates {
		add(pfx(t, "203.0.113.0/24"), d)
	}

	for _, pr := range pairs {
		got := canonicalize(ix.At(pr.p, pr.d))
		want := canonicalize(NaiveAt(in, pr.p, pr.d))
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("At(%v, %s) diverges from naive replay:\n  index: %+v\n  naive: %+v",
				pr.p, fmtDay(pr.d), got, want)
		}
	}
	t.Logf("verified %d (prefix, date) pairs", len(pairs))
}
