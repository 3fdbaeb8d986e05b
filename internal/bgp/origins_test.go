package bgp

import (
	"fmt"
	"reflect"
	"testing"

	"ipv4market/internal/netblock"
)

func originRoute(prefix string, path ASPath) Route {
	return Route{Prefix: pfx(prefix), Path: path}
}

// TestOriginSurveyRepeatedMonitorCountsOnce pins the set semantics of
// monitor IDs: views added twice under one ID, even with different
// routes, count that monitor once per pair and once in NumMonitors.
func TestOriginSurveyRepeatedMonitorCountsOnce(t *testing.T) {
	s := NewOriginSurvey()
	view := []Route{originRoute("10.0.0.0/8", NewPath(1, 2, 3))}
	s.AddView("rrc00:198.51.100.1", view)
	s.AddView("rrc00:198.51.100.1", view)
	s.AddView("rrc00:198.51.100.1", []Route{originRoute("11.0.0.0/8", NewPath(1, 4))})
	s.AddView("rrc00:198.51.100.2", view)
	if s.NumMonitors() != 2 {
		t.Fatalf("NumMonitors = %d, want 2", s.NumMonitors())
	}
	want := []PrefixOrigin{
		{Prefix: pfx("10.0.0.0/8"), Origin: 3, Monitors: 2},
		{Prefix: pfx("11.0.0.0/8"), Origin: 4, Monitors: 1},
	}
	if got := s.Pairs(); !reflect.DeepEqual(got, want) {
		t.Errorf("Pairs = %+v, want %+v", got, want)
	}
	if m := s.AddMonitor("rrc00:198.51.100.2"); m != 1 {
		t.Errorf("AddMonitor of a known ID = %d, want its index 1", m)
	}
	// A monitor with no routes still counts towards the total.
	s.AddView("rrc00:198.51.100.3", nil)
	if s.NumMonitors() != 3 {
		t.Errorf("NumMonitors after an empty view = %d, want 3", s.NumMonitors())
	}
}

// TestOriginSurveyManyMonitors counts pairs across more monitors than
// one bitset word holds, including indexes in a second overflow word.
func TestOriginSurveyManyMonitors(t *testing.T) {
	s := NewOriginSurvey()
	const n = 150
	for i := 0; i < n; i++ {
		view := []Route{originRoute("10.0.0.0/8", NewPath(1, 3))}
		if i%2 == 1 {
			view = append(view, originRoute("10.1.0.0/16", NewPath(1, 5)))
		}
		if i >= 128 {
			view = append(view, originRoute("10.2.0.0/16", NewPath(1, 6)))
		}
		s.AddView(fmt.Sprintf("m%d", i), view)
		if i >= 100 { // a second view under a known ID changes nothing
			s.AddView(fmt.Sprintf("m%d", i), view)
		}
	}
	if s.NumMonitors() != n {
		t.Fatalf("NumMonitors = %d, want %d", s.NumMonitors(), n)
	}
	want := map[string]int{"10.0.0.0/8": n, "10.1.0.0/16": n / 2, "10.2.0.0/16": n - 128}
	for _, po := range s.Pairs() {
		if po.Monitors != want[po.Prefix.String()] {
			t.Errorf("%v: %d monitors, want %d", po.Prefix, po.Monitors, want[po.Prefix.String()])
		}
	}
	clean := s.CleanPairs(0.5)
	if len(clean) != 2 || clean[pfx("10.0.0.0/8")] != 3 || clean[pfx("10.1.0.0/16")] != 5 {
		t.Errorf("CleanPairs(0.5) = %v, want the /8 and the /16 seen by half", clean)
	}
}

// TestOriginSurveyASSet: a prefix seen only via AS_SET paths has no
// usable origin and stays out of every pair view; a prefix seen both
// ways keeps its origins but carries the flag, which CleanPairs drops.
func TestOriginSurveyASSet(t *testing.T) {
	s := NewOriginSurvey()
	s.AddView("m1", []Route{
		originRoute("10.0.0.0/8", NewPath(1, 2).AppendSet(7, 8)),
		originRoute("11.0.0.0/8", NewPath(1, 2).AppendSet(7, 8)),
		originRoute("12.0.0.0/8", NewPath(1, 9)),
	})
	s.AddView("m2", []Route{
		originRoute("10.0.0.0/8", NewPath(1, 2).AppendSet(7, 8)),
		originRoute("11.0.0.0/8", NewPath(1, 4)),
		originRoute("12.0.0.0/8", NewPath(1, 9)),
		originRoute("13.0.0.0/8", ASPath{}), // no origin at all
	})
	want := []PrefixOrigin{
		{Prefix: pfx("11.0.0.0/8"), Origin: 4, Monitors: 1, ASSet: true},
		{Prefix: pfx("12.0.0.0/8"), Origin: 9, Monitors: 2},
	}
	if got := s.Pairs(); !reflect.DeepEqual(got, want) {
		t.Errorf("Pairs = %+v, want %+v", got, want)
	}
	if got, want := s.CleanPairs(0), map[netblock.Prefix]ASN{pfx("12.0.0.0/8"): 9}; !reflect.DeepEqual(got, want) {
		t.Errorf("CleanPairs(0) = %v, want %v", got, want)
	}
	wantRaw := map[netblock.Prefix][]ASN{pfx("11.0.0.0/8"): {4}, pfx("12.0.0.0/8"): {9}}
	if got := s.RawPairs(); !reflect.DeepEqual(got, wantRaw) {
		t.Errorf("RawPairs = %v, want %v", got, wantRaw)
	}
}

// TestPrefixSurveyMatchesObserve feeds the same sightings to a survey
// by record index, to one by prefix, and to one by record index and
// monitor bitset (ObserveSetAt, one call per record and outcome, with
// an all-zero bitset that must record nothing): MOAS (a second origin
// beyond the preallocated first), AS_SET, a record nobody sees, and a
// monitor past the first bitset word. A later Observe on the indexed
// surveys finds the existing record and adds a new one.
func TestPrefixSurveyMatchesObserve(t *testing.T) {
	prefixes := []netblock.Prefix{pfx("10.0.0.0/8"), pfx("10.1.0.0/16"), pfx("11.0.0.0/8"), pfx("12.0.0.0/8")}
	type sighting struct {
		m, rec int
		origin ASN
		asSet  bool
	}
	sightings := []sighting{
		{0, 0, 3, false}, {1, 0, 3, false}, {70, 0, 3, false},
		{0, 1, 5, false}, {1, 1, 6, false}, {2, 1, 5, false},
		{1, 2, 0, true}, {2, 2, 9, false},
	}
	indexed := NewPrefixSurvey(prefixes)
	byPrefix := NewOriginSurvey()
	bySet := NewPrefixSurvey(prefixes)
	for m := 0; m <= 70; m++ {
		id := fmt.Sprintf("m%d", m)
		indexed.AddMonitor(id)
		byPrefix.AddMonitor(id)
		bySet.AddMonitor(id)
	}
	type outcome struct {
		rec    int
		origin ASN
		asSet  bool
	}
	var outcomes []outcome
	sets := make(map[outcome][]uint64)
	for _, s := range sightings {
		indexed.ObserveAt(s.m, s.rec, s.origin, s.asSet)
		path := NewPath(1, s.origin)
		if s.asSet {
			path = NewPath(1).AppendSet(7, 8)
		}
		byPrefix.Observe(s.m, prefixes[s.rec], path)
		o := outcome{s.rec, s.origin, s.asSet}
		if sets[o] == nil {
			outcomes = append(outcomes, o)
			sets[o] = make([]uint64, 2)
		}
		sets[o][s.m/64] |= 1 << uint(s.m%64)
	}
	for _, o := range outcomes {
		bySet.ObserveSetAt(o.rec, o.origin, o.asSet, sets[o])
	}
	bySet.ObserveSetAt(3, 9, false, make([]uint64, 2)) // nobody: no pair
	for _, s := range []*OriginSurvey{indexed, byPrefix, bySet} {
		s.Observe(3, pfx("10.0.0.0/8"), NewPath(1, 3))
		s.Observe(3, pfx("13.0.0.0/8"), NewPath(1, 4))
	}
	for _, c := range []struct {
		name string
		s    *OriginSurvey
	}{{"by index", indexed}, {"by bitset", bySet}} {
		name, s := c.name, c.s
		if got, want := s.Pairs(), byPrefix.Pairs(); !reflect.DeepEqual(got, want) {
			t.Errorf("Pairs %s = %+v\nby prefix = %+v", name, got, want)
		}
		if got, want := s.RawPairs(), byPrefix.RawPairs(); !reflect.DeepEqual(got, want) {
			t.Errorf("RawPairs %s = %v, by prefix %v", name, got, want)
		}
		if got, want := s.CleanPairs(0), byPrefix.CleanPairs(0); !reflect.DeepEqual(got, want) {
			t.Errorf("CleanPairs %s = %v, by prefix %v", name, got, want)
		}
	}
	if got := indexed.Pairs(); len(got) != 5 || got[0].Monitors != 4 || !got[1].MOAS || !got[3].ASSet {
		t.Errorf("Pairs = %+v, want the /8 seen by 4, a MOAS /16 and an AS_SET-flagged 11/8", got)
	}
}

// TestEachVisiblePrefix checks the prefixes EachVisiblePrefix yields
// against the Pairs entries that pass the AS_SET and visibility
// filters: a MOAS prefix with one visible origin comes once, a prefix
// flagged by an AS_SET path never, whatever its other origins' reach.
func TestEachVisiblePrefix(t *testing.T) {
	s := NewOriginSurvey()
	s.AddView("m0", []Route{
		originRoute("10.0.0.0/8", NewPath(1, 3)),
		originRoute("11.0.0.0/8", NewPath(1, 4)),
		originRoute("12.0.0.0/8", NewPath(1, 6)),
		originRoute("13.0.0.0/8", NewPath(1, 7)),
	})
	s.AddView("m1", []Route{
		originRoute("10.0.0.0/8", NewPath(1, 3)),
		originRoute("11.0.0.0/8", NewPath(1, 5)),
		originRoute("12.0.0.0/8", NewPath(1, 6)),
	})
	s.AddView("m2", []Route{
		originRoute("11.0.0.0/8", NewPath(1, 5)),
		originRoute("12.0.0.0/8", NewPath(2).AppendSet(8, 9)),
	})
	var got []netblock.Prefix
	s.EachVisiblePrefix(0.5, func(p netblock.Prefix) { got = append(got, p) })
	var want []netblock.Prefix
	for _, po := range s.Pairs() {
		if !po.ASSet && po.Visibility(s.NumMonitors()) >= 0.5 &&
			(len(want) == 0 || want[len(want)-1] != po.Prefix) {
			want = append(want, po.Prefix)
		}
	}
	if !reflect.DeepEqual(got, want) || len(got) != 2 {
		t.Errorf("EachVisiblePrefix = %v, want %v (10/8 and the MOAS 11/8)", got, want)
	}
}

// TestOriginSurveyManyOrigins gives one prefix three origins and another
// four, interleaved so the side array of later origins grows while a
// chain is being extended, on fresh surveys fed by prefix, by record
// index and by bitset. Every origin must be listed once, with every
// monitor that saw it: a later sighting of a known origin adds no pair.
func TestOriginSurveyManyOrigins(t *testing.T) {
	prefixes := []netblock.Prefix{pfx("10.0.0.0/8"), pfx("11.0.0.0/8")}
	type sighting struct {
		m, rec int
		origin ASN
	}
	sightings := []sighting{
		{0, 0, 1}, {0, 1, 1}, {1, 0, 2}, {1, 1, 2}, {2, 0, 3}, {2, 1, 3},
		{3, 1, 4}, {3, 0, 3}, {4, 1, 4}, {4, 0, 3}, {5, 1, 3},
	}
	byPrefix := NewOriginSurvey()
	byIndex := NewPrefixSurvey(prefixes)
	bySet := NewPrefixSurvey(prefixes)
	for m := 0; m <= 5; m++ {
		id := fmt.Sprintf("m%d", m)
		byPrefix.AddMonitor(id)
		byIndex.AddMonitor(id)
		bySet.AddMonitor(id)
	}
	for _, s := range sightings {
		byPrefix.Observe(s.m, prefixes[s.rec], NewPath(9, s.origin))
		byIndex.ObserveAt(s.m, s.rec, s.origin, false)
		bySet.ObserveSetAt(s.rec, s.origin, false, []uint64{1 << uint(s.m)})
	}
	want := []PrefixOrigin{
		{Prefix: prefixes[0], Origin: 1, Monitors: 1, MOAS: true},
		{Prefix: prefixes[0], Origin: 2, Monitors: 1, MOAS: true},
		{Prefix: prefixes[0], Origin: 3, Monitors: 3, MOAS: true},
		{Prefix: prefixes[1], Origin: 1, Monitors: 1, MOAS: true},
		{Prefix: prefixes[1], Origin: 2, Monitors: 1, MOAS: true},
		{Prefix: prefixes[1], Origin: 3, Monitors: 2, MOAS: true},
		{Prefix: prefixes[1], Origin: 4, Monitors: 2, MOAS: true},
	}
	wantRaw := map[netblock.Prefix][]ASN{prefixes[0]: {1, 2, 3}, prefixes[1]: {1, 2, 3, 4}}
	for _, c := range []struct {
		name string
		s    *OriginSurvey
	}{{"by prefix", byPrefix}, {"by index", byIndex}, {"by bitset", bySet}} {
		if got := c.s.Pairs(); !reflect.DeepEqual(got, want) {
			t.Errorf("Pairs %s = %+v\nwant %+v", c.name, got, want)
		}
		if got := c.s.RawPairs(); !reflect.DeepEqual(got, wantRaw) {
			t.Errorf("RawPairs %s = %v, want %v", c.name, got, wantRaw)
		}
		// Only origins past the second reach a third of the monitors;
		// both prefixes must still be found.
		var visible []netblock.Prefix
		c.s.EachVisiblePrefix(2.0/6, func(p netblock.Prefix) { visible = append(visible, p) })
		if !reflect.DeepEqual(visible, prefixes) {
			t.Errorf("EachVisiblePrefix %s = %v, want %v", c.name, visible, prefixes)
		}
	}
}
