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
