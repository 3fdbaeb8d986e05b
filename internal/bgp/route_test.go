package bgp

import (
	"math/rand"
	"testing"

	"ipv4market/internal/netblock"
)

func pfx(s string) netblock.Prefix { return netblock.MustParsePrefix(s) }

func TestASPathOriginAS(t *testing.T) {
	p := NewPath(3320, 1299, 64500)
	if o, ok := p.OriginAS(); !ok || o != 64500 {
		t.Errorf("OriginAS = %v, %v", o, ok)
	}
	if _, ok := (ASPath{}).OriginAS(); ok {
		t.Error("empty path has no origin")
	}
	setPath := NewPath(3320).AppendSet(64500, 64501)
	if _, ok := setPath.OriginAS(); ok {
		t.Error("AS_SET-terminated path has no usable origin")
	}
	if !setPath.EndsInSet() {
		t.Error("EndsInSet should be true")
	}
	if NewPath(1).EndsInSet() {
		t.Error("sequence path does not end in set")
	}
}

func TestASPathHasLoop(t *testing.T) {
	cases := []struct {
		path ASPath
		want bool
	}{
		{NewPath(1, 2, 3), false},
		{NewPath(1, 2, 2, 2, 3), false}, // prepending
		{NewPath(1, 2, 3, 2), true},     // true loop
		{NewPath(1, 2, 1), true},
		{ASPath{}, false},
	}
	for i, c := range cases {
		if got := c.path.HasLoop(); got != c.want {
			t.Errorf("case %d (%v): HasLoop = %v, want %v", i, c.path, got, c.want)
		}
	}
}

// TestASPathHasLoopLongPaths covers paths with more distinct hops than
// HasLoop's fixed array holds, where the seen set spills into a map,
// against a plain map-based reference on random paths.
func TestASPathHasLoopLongPaths(t *testing.T) {
	ref := func(p ASPath) bool {
		seen := make(map[ASN]bool)
		var prev ASN
		havePrev := false
		for _, seg := range p {
			if seg.Type != SegmentSequence {
				havePrev = false
				continue
			}
			for _, a := range seg.ASNs {
				if havePrev && a == prev {
					continue
				}
				if seen[a] {
					return true
				}
				seen[a] = true
				prev, havePrev = a, true
			}
		}
		return false
	}
	long := make([]ASN, 40)
	for i := range long {
		long[i] = ASN(100 + i)
	}
	if NewPath(long...).HasLoop() {
		t.Error("40 distinct hops reported as a loop")
	}
	if !NewPath(append(append([]ASN(nil), long...), 103)...).HasLoop() {
		t.Error("loop after the spill point missed")
	}
	if !NewPath(append(append([]ASN(nil), long[:16]...), 100)...).HasLoop() {
		t.Error("loop at the spill point missed")
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 5000; i++ {
		var p ASPath
		alphabet := []int{8, 60, 100000}[rng.Intn(3)]
		for s := rng.Intn(4); s >= 0; s-- {
			seg := PathSegment{Type: SegmentSequence}
			if rng.Intn(5) == 0 {
				seg.Type = SegmentSet
			}
			for n := rng.Intn(30); n > 0; n-- {
				seg.ASNs = append(seg.ASNs, ASN(1+rng.Intn(alphabet)))
			}
			p = append(p, seg)
		}
		if got, want := p.HasLoop(), ref(p); got != want {
			t.Fatalf("HasLoop(%v) = %v, reference %v", p, got, want)
		}
	}
}

func TestASPathPrependCloneString(t *testing.T) {
	p := NewPath(2, 3)
	q := p.Prepend(1)
	if q.String() != "1 2 3" {
		t.Errorf("Prepend = %q", q.String())
	}
	if p.String() != "2 3" {
		t.Error("Prepend mutated the original")
	}
	if !q.ContainsAS(1) || q.ContainsAS(9) {
		t.Error("ContainsAS wrong")
	}
	withSet := NewPath(1).AppendSet(5, 6)
	if withSet.String() != "1 {5,6}" {
		t.Errorf("String with set = %q", withSet.String())
	}
	// Prepending to a path starting with a set creates a new sequence.
	setFirst := ASPath{{Type: SegmentSet, ASNs: []ASN{5}}}
	got := setFirst.Prepend(7)
	if got.String() != "7 {5}" {
		t.Errorf("Prepend to set-first = %q", got.String())
	}
	c := withSet.Clone()
	c[1].ASNs[0] = 99
	if withSet[1].ASNs[0] != 5 {
		t.Error("Clone should deep-copy segments")
	}
}

func TestOriginString(t *testing.T) {
	if OriginIGP.String() != "IGP" || OriginEGP.String() != "EGP" || OriginIncomplete.String() != "INCOMPLETE" {
		t.Error("origin names")
	}
}

func TestRIB(t *testing.T) {
	rib := NewRIB()
	r1 := Route{Prefix: pfx("10.0.0.0/8"), Path: NewPath(1, 2)}
	r2 := Route{Prefix: pfx("9.0.0.0/8"), Path: NewPath(3)}
	rib.Insert(r1)
	rib.Insert(r2)
	if rib.Len() != 2 {
		t.Errorf("Len = %d", rib.Len())
	}
	got, ok := rib.Get(pfx("10.0.0.0/8"))
	if !ok || got.Path.String() != "1 2" {
		t.Errorf("Get = %+v, %v", got, ok)
	}
	// Replace.
	rib.Insert(Route{Prefix: pfx("10.0.0.0/8"), Path: NewPath(9)})
	got, _ = rib.Get(pfx("10.0.0.0/8"))
	if got.Path.String() != "9" {
		t.Error("Insert should replace")
	}
	// Sorted enumeration.
	rs := rib.Routes()
	if rs[0].Prefix != pfx("9.0.0.0/8") {
		t.Errorf("Routes not sorted: %v", rs)
	}
	clone := rib.Clone()
	if !rib.Withdraw(pfx("9.0.0.0/8")) || rib.Withdraw(pfx("9.0.0.0/8")) {
		t.Error("Withdraw semantics")
	}
	if clone.Len() != 2 {
		t.Error("Clone should be independent")
	}
}

func TestIsReservedASN(t *testing.T) {
	reserved := []ASN{0, 23456, 64496, 64511, 64512, 65534, 65535, 65536, 65551, 4200000000, 4294967295}
	for _, a := range reserved {
		if !IsReservedASN(a) {
			t.Errorf("ASN %d should be reserved", uint32(a))
		}
	}
	public := []ASN{1, 3320, 13335, 64495, 65552, 394000, 4199999999}
	for _, a := range public {
		if IsReservedASN(a) {
			t.Errorf("ASN %d should be public", uint32(a))
		}
	}
}

func TestSanitize(t *testing.T) {
	routes := []Route{
		{Prefix: pfx("8.8.8.0/24"), Path: NewPath(1, 2)},       // clean
		{Prefix: pfx("10.0.0.0/8"), Path: NewPath(1, 2)},       // private space
		{Prefix: pfx("8.8.4.0/24"), Path: NewPath(1, 64512)},   // reserved ASN
		{Prefix: pfx("1.1.1.0/24"), Path: NewPath(1, 2, 1)},    // loop
		{Prefix: pfx("9.9.9.0/24"), Path: NewPath(3, 3, 3, 4)}, // prepend: clean
		{Prefix: pfx("198.18.0.0/16"), Path: NewPath(5)},       // benchmarking space
	}
	clean, rep := Sanitize(routes)
	if len(clean) != 2 {
		t.Fatalf("kept %d routes: %v", len(clean), clean)
	}
	if rep.Input != 6 || rep.Kept != 2 || rep.SpecialSpace != 2 || rep.ReservedASN != 1 || rep.PathLoop != 1 {
		t.Errorf("report = %+v", rep)
	}
}

func TestOriginSurveyCleanPairs(t *testing.T) {
	s := NewOriginSurvey()
	// 4 monitors. 10.99 is announced to test visibility.
	routes := func(origin ASN) []Route {
		return []Route{{Prefix: pfx("8.8.8.0/24"), Path: NewPath(100, origin)}}
	}
	s.AddView("m1", routes(64500))
	s.AddView("m2", routes(64500))
	s.AddView("m3", routes(64500))
	// m4 sees nothing for 8.8.8.0/24 but contributes a low-visibility pair.
	s.AddView("m4", []Route{{Prefix: pfx("9.9.9.0/24"), Path: NewPath(100, 200)}})

	if s.NumMonitors() != 4 {
		t.Fatalf("NumMonitors = %d", s.NumMonitors())
	}
	clean := s.CleanPairs(0.5)
	if clean[pfx("8.8.8.0/24")] != 64500 {
		t.Error("well-seen pair should survive")
	}
	if _, ok := clean[pfx("9.9.9.0/24")]; ok {
		t.Error("1/4-visibility pair should be dropped at threshold 0.5")
	}
}

func TestOriginSurveyMOASAndASSet(t *testing.T) {
	s := NewOriginSurvey()
	s.AddView("m1", []Route{
		{Prefix: pfx("8.8.8.0/24"), Path: NewPath(100, 64500)},
		{Prefix: pfx("7.7.7.0/24"), Path: NewPath(100).AppendSet(1, 2)},
	})
	s.AddView("m2", []Route{
		{Prefix: pfx("8.8.8.0/24"), Path: NewPath(100, 64501)}, // MOAS
	})
	clean := s.CleanPairs(0.5)
	if len(clean) != 0 {
		t.Errorf("MOAS and AS_SET prefixes must be dropped, got %v", clean)
	}
	pairs := s.Pairs()
	var sawMOAS bool
	for _, po := range pairs {
		if po.Prefix == pfx("8.8.8.0/24") && po.MOAS {
			sawMOAS = true
		}
	}
	if !sawMOAS {
		t.Error("Pairs should flag MOAS")
	}
	raw := s.RawPairs()
	if len(raw[pfx("8.8.8.0/24")]) != 2 {
		t.Errorf("RawPairs = %v", raw)
	}
	if po := pairs[0]; po.Visibility(2) != 0.5 {
		t.Errorf("Visibility = %v", po.Visibility(2))
	}
	if (PrefixOrigin{}).Visibility(0) != 0 {
		t.Error("zero-monitor visibility must be 0")
	}
}

// fakeValidator marks one specific (prefix, origin) pair invalid.
type fakeValidator struct {
	badPrefix netblock.Prefix
	badOrigin uint32
}

func (f fakeValidator) ValidateOrigin(p netblock.Prefix, origin uint32) int {
	if p == f.badPrefix && origin == f.badOrigin {
		return 2 // invalid
	}
	return 0 // not found
}

func TestSanitizeWithROV(t *testing.T) {
	routes := []Route{
		{Prefix: pfx("8.8.8.0/24"), Path: NewPath(1, 15169)},
		{Prefix: pfx("8.8.8.0/24"), Path: NewPath(1, 666)}, // hijack: invalid under ROV
		{Prefix: pfx("10.0.0.0/8"), Path: NewPath(1)},      // bogon: removed by Sanitize
	}
	v := fakeValidator{badPrefix: pfx("8.8.8.0/24"), badOrigin: 666}
	clean, rep, dropped := SanitizeWithROV(routes, v)
	if len(clean) != 1 || dropped != 1 {
		t.Fatalf("clean = %v, dropped = %d", clean, dropped)
	}
	if o, _ := clean[0].OriginAS(); o != 15169 {
		t.Errorf("surviving origin = %v", o)
	}
	if rep.Kept != 1 || rep.SpecialSpace != 1 {
		t.Errorf("report = %+v", rep)
	}
	// Nil validator: plain sanitize.
	clean2, _, dropped2 := SanitizeWithROV(routes, nil)
	if len(clean2) != 2 || dropped2 != 0 {
		t.Errorf("nil validator: %v, %d", clean2, dropped2)
	}
}
