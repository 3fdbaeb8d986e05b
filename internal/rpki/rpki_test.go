package rpki

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"ipv4market/internal/netblock"
)

func pfx(s string) netblock.Prefix { return netblock.MustParsePrefix(s) }

func day0() time.Time { return time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC) }

func TestValidate(t *testing.T) {
	s := NewSnapshot(day0())
	s.Add(ROA{Prefix: pfx("185.0.0.0/16"), MaxLength: 24, ASN: 64500})
	s.Add(ROA{Prefix: pfx("8.8.0.0/16"), MaxLength: 16, ASN: 15169})

	cases := []struct {
		p      string
		origin ASN
		want   Validity
	}{
		{"185.0.0.0/16", 64500, Valid},
		{"185.0.1.0/24", 64500, Valid},     // within maxLength
		{"185.0.1.128/25", 64500, Invalid}, // beyond maxLength
		{"185.0.1.0/24", 64501, Invalid},   // wrong origin
		{"9.9.9.0/24", 64500, NotFound},
		{"8.8.8.0/24", 15169, Invalid}, // maxLength 16 < 24
		{"8.8.0.0/16", 15169, Valid},
	}
	for _, c := range cases {
		if got := s.Validate(pfx(c.p), c.origin); got != c.want {
			t.Errorf("Validate(%s, %d) = %v, want %v", c.p, c.origin, got, c.want)
		}
	}
	if s.Len() != 2 {
		t.Errorf("Len = %d", s.Len())
	}
}

func TestValidateMultipleROAsSamePrefix(t *testing.T) {
	s := NewSnapshot(day0())
	s.Add(ROA{Prefix: pfx("185.0.0.0/16"), MaxLength: 16, ASN: 64500})
	s.Add(ROA{Prefix: pfx("185.0.0.0/16"), MaxLength: 16, ASN: 64501})
	if got := s.Validate(pfx("185.0.0.0/16"), 64501); got != Valid {
		t.Errorf("second ROA should validate, got %v", got)
	}
	if got := s.Validate(pfx("185.0.0.0/16"), 64502); got != Invalid {
		t.Errorf("unauthorized origin = %v", got)
	}
}

func TestMaxLengthNormalization(t *testing.T) {
	s := NewSnapshot(day0())
	s.Add(ROA{Prefix: pfx("185.0.0.0/16"), MaxLength: 8, ASN: 64500}) // < bits
	s.Add(ROA{Prefix: pfx("9.0.0.0/8"), MaxLength: 99, ASN: 64501})   // > 32
	if got := s.Validate(pfx("185.0.0.0/16"), 64500); got != Valid {
		t.Errorf("normalized maxLength should validate the exact prefix, got %v", got)
	}
	if got := s.Validate(pfx("9.1.2.3/32"), 64501); got != Valid {
		t.Errorf("maxLength clamped to 32 should validate /32, got %v", got)
	}
}

func TestValidityString(t *testing.T) {
	if NotFound.String() != "not-found" || Valid.String() != "valid" || Invalid.String() != "invalid" {
		t.Error("validity names")
	}
}

func TestDelegationsFromROAs(t *testing.T) {
	s := NewSnapshot(day0())
	s.Add(ROA{Prefix: pfx("185.0.0.0/16"), MaxLength: 24, ASN: 64500})
	s.Add(ROA{Prefix: pfx("185.0.0.0/22"), MaxLength: 24, ASN: 64501})   // delegation 64500→64501
	s.Add(ROA{Prefix: pfx("185.0.0.0/24"), MaxLength: 24, ASN: 64502})   // delegation 64501→64502 (immediate parent is the /22)
	s.Add(ROA{Prefix: pfx("185.0.128.0/24"), MaxLength: 24, ASN: 64500}) // same AS: not a delegation
	s.Add(ROA{Prefix: pfx("9.0.0.0/8"), MaxLength: 8, ASN: 64999})       // unrelated

	ds := s.Delegations()
	if len(ds) != 2 {
		t.Fatalf("Delegations = %v", ds)
	}
	if ds[0].Child != pfx("185.0.0.0/22") || ds[0].From != 64500 || ds[0].To != 64501 {
		t.Errorf("ds[0] = %+v", ds[0])
	}
	if ds[1].Child != pfx("185.0.0.0/24") || ds[1].From != 64501 || ds[1].To != 64502 || ds[1].Parent != pfx("185.0.0.0/22") {
		t.Errorf("ds[1] = %+v", ds[1])
	}
}

func dtest(child string, from, to ASN) Delegation {
	return Delegation{Child: pfx(child), From: from, To: to}
}

func TestHistoryObserveAndPresence(t *testing.T) {
	h := NewHistory(day0(), 10)
	d := dtest("185.0.0.0/24", 1, 2)
	h.Observe(0, d)
	h.Observe(3, d)
	h.Observe(-1, d) // ignored
	h.Observe(10, d) // ignored
	if !h.ObservedOn(0, d) || h.ObservedOn(1, d) || !h.ObservedOn(3, d) {
		t.Error("observation bitmap wrong")
	}
	if h.NumDelegations() != 1 {
		t.Errorf("NumDelegations = %d", h.NumDelegations())
	}
	// Days are floored: the instants just before start are day -1.
	for _, tc := range []struct {
		at   time.Time
		want int
	}{
		{day0().Add(-24*time.Hour - time.Nanosecond), -2},
		{day0().Add(-13 * time.Hour), -1},
		{day0().Add(-time.Nanosecond), -1},
		{day0(), 0},
		{day0().Add(13 * time.Hour), 0},
		{day0().Add(72 * time.Hour), 3},
	} {
		if got := h.DayOf(tc.at); got != tc.want {
			t.Errorf("DayOf(%s) = %d, want %d", tc.at, got, tc.want)
		}
	}
	counts := h.PresenceCount()
	if counts[0] != 1 || counts[1] != 0 || counts[3] != 1 {
		t.Errorf("PresenceCount = %v", counts)
	}
	if h.Days() != 10 || !h.Start().Equal(day0()) {
		t.Error("metadata")
	}
}

// TestRecorder pins the key creation a Recorder defers: one that sees
// only out-of-range days adds no delegation, a delegation already
// observed is shared with History.Observe, and keys of one child are
// grouped in the order of their first in-range observation.
func TestRecorder(t *testing.T) {
	h := NewHistory(day0(), 10)
	a, b := dtest("185.0.0.0/24", 1, 2), dtest("185.0.0.0/24", 1, 3)
	ra, rb := h.Recorder(a), h.Recorder(b)
	ra.Observe(-1)
	ra.Observe(10)
	if h.NumDelegations() != 0 || len(h.byChild) != 0 {
		t.Fatalf("out-of-range days added %d delegations", h.NumDelegations())
	}
	rb.Observe(2)
	h.Observe(4, a)
	ra.Observe(5)
	if h.NumDelegations() != 2 {
		t.Fatalf("NumDelegations = %d, want 2", h.NumDelegations())
	}
	for day := 0; day < 10; day++ {
		if got, want := h.ObservedOn(day, a), day == 4 || day == 5; got != want {
			t.Errorf("ObservedOn(%d, a) = %v, want %v", day, got, want)
		}
		if got, want := h.ObservedOn(day, b), day == 2; got != want {
			t.Errorf("ObservedOn(%d, b) = %v, want %v", day, got, want)
		}
	}
	keys := h.byChild[childKey{uint32(a.Child.Addr()), uint8(a.Child.Bits())}]
	if len(keys) != 2 || keys[0].to != b.To || keys[1].to != a.To {
		t.Errorf("byChild = %+v, want b's key, then a's", keys)
	}
}

func TestEvaluateRule(t *testing.T) {
	h := NewHistory(day0(), 20)
	d := dtest("185.0.0.0/24", 1, 2)
	// Present on days 0..10 except 5: one gap.
	for i := 0; i <= 10; i++ {
		if i != 5 {
			h.Observe(i, d)
		}
	}
	// Rule M=10, N=0: premise holds for (0,10): missing day 5 → failure.
	r, err := h.EvaluateRule(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r.Premises == 0 {
		t.Fatal("expected premises")
	}
	// For X=0, M=10: 1 missing day > 0 → fail. Other windows like (1..4)
	// etc. also counted. Check specific: M=10 has exactly one X (0) with
	// both endpoints in range 0..10 → plus none beyond day 10.
	if r.Premises != 1 || r.Failures != 1 {
		t.Errorf("M=10,N=0: %+v", r)
	}
	// N=1 tolerates the gap.
	r, _ = h.EvaluateRule(10, 1)
	if r.Failures != 0 {
		t.Errorf("M=10,N=1: %+v", r)
	}
	// M=1: adjacent days, no in-between, never fails.
	r, _ = h.EvaluateRule(1, 0)
	if r.Failures != 0 || r.Premises == 0 {
		t.Errorf("M=1,N=0: %+v", r)
	}
	if _, err := h.EvaluateRule(0, 0); err == nil {
		t.Error("M=0 should be rejected")
	}
	if _, err := h.EvaluateRule(5, -1); err == nil {
		t.Error("negative N should be rejected")
	}
	if r.FailRate() != 0 {
		t.Error("FailRate of zero failures")
	}
	if (RuleResult{}).FailRate() != 0 {
		t.Error("FailRate with no premises must be 0")
	}
}

func TestEvaluateRuleConflictRemovesPremise(t *testing.T) {
	h := NewHistory(day0(), 10)
	d := dtest("185.0.0.0/24", 1, 2)
	conflict := dtest("185.0.0.0/24", 1, 3) // same child, different delegatee
	h.Observe(0, d)
	h.Observe(4, d)
	h.Observe(2, conflict)
	r, err := h.EvaluateRule(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The only candidate window (0,4) has a conflicting delegation on day 2.
	if r.Premises != 0 {
		t.Errorf("conflict should void the premise: %+v", r)
	}
	// A delegation back to the same delegatee is not a conflict.
	h2 := NewHistory(day0(), 10)
	h2.Observe(0, d)
	h2.Observe(4, d)
	h2.Observe(2, dtest("185.0.0.0/24", 9, 2)) // same delegatee, different delegator
	r2, _ := h2.EvaluateRule(4, 0)
	if r2.Premises != 1 {
		t.Errorf("same-delegatee observation must not be a conflict: %+v", r2)
	}
}

func TestEvaluateGrid(t *testing.T) {
	h := NewHistory(day0(), 30)
	d := dtest("185.0.0.0/24", 1, 2)
	for i := 0; i < 30; i += 2 { // on-off pattern
		h.Observe(i, d)
	}
	grid, err := h.EvaluateGrid([]int{2, 4, 10}, []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 9 {
		t.Fatalf("grid size = %d", len(grid))
	}
	// With every other day missing, N=0 fails everywhere (M≥2), while
	// large N tolerates.
	for _, r := range grid {
		if r.N == 0 && r.M >= 2 && r.Premises > 0 && r.Failures != r.Premises {
			t.Errorf("M=%d,N=0 should always fail: %+v", r.M, r)
		}
		if r.N == 3 && r.M <= 4 && r.Failures != 0 {
			t.Errorf("M=%d,N=3 should never fail: %+v", r.M, r)
		}
	}
}

func TestFillGaps(t *testing.T) {
	h := NewHistory(day0(), 20)
	d := dtest("185.0.0.0/24", 1, 2)
	h.Observe(0, d)
	h.Observe(5, d)  // gap of 4 days: fill (m=10)
	h.Observe(18, d) // gap of 12 days: too wide for m=10
	filled := h.FillGaps(10)
	if filled != 4 {
		t.Errorf("filled = %d, want 4", filled)
	}
	for i := 1; i <= 4; i++ {
		if !h.ObservedOn(i, d) {
			t.Errorf("day %d should be filled", i)
		}
	}
	if h.ObservedOn(10, d) {
		t.Error("wide gap must not be filled")
	}
}

func TestFillGapsRespectsConflicts(t *testing.T) {
	h := NewHistory(day0(), 20)
	d := dtest("185.0.0.0/24", 1, 2)
	h.Observe(0, d)
	h.Observe(5, d)
	h.Observe(2, dtest("185.0.0.0/24", 1, 3)) // conflicting delegatee
	filled := h.FillGaps(10)
	if filled != 0 {
		t.Errorf("conflicted gap must not be filled, filled = %d", filled)
	}
}

// TestDaysetCountRange: range counts read off prefixCounts, across the
// 64-day word boundaries.
func TestDaysetCountRange(t *testing.T) {
	ds := newDayset(200)
	for _, i := range []int{0, 63, 64, 65, 127, 128, 199} {
		ds.set(i)
	}
	c := make([]int32, 201)
	ds.prefixCounts(c)
	if got := c[200] - c[0]; got != 7 {
		t.Errorf("count full = %d", got)
	}
	if got := c[128] - c[64]; got != 3 {
		t.Errorf("count [64,128) = %d", got)
	}
	if got := c[100] - c[100]; got != 0 {
		t.Errorf("empty range = %d", got)
	}
	if !ds.anyInRange(60, 70) || ds.anyInRange(1, 63) {
		t.Error("anyInRange wrong")
	}
}

// referenceRule is the plain per-(M, N) evaluation of the consistency
// rule, straight from its definition, that EvaluateGrid must match.
func referenceRule(h *History, m, n int) RuleResult {
	r := RuleResult{M: m, N: n}
	for k, ds := range h.keys {
	windows:
		for x := 0; x+m < h.days; x++ {
			if !ds.get(x) || !ds.get(x+m) {
				continue
			}
			for _, other := range h.byChild[k.child] {
				if other.to == k.to {
					continue
				}
				for y := x + 1; y < x+m; y++ {
					if h.keys[other].get(y) {
						continue windows
					}
				}
			}
			r.Premises++
			missing := 0
			for y := x + 1; y < x+m; y++ {
				if !ds.get(y) {
					missing++
				}
			}
			if missing > n {
				r.Failures++
			}
		}
	}
	return r
}

// TestEvaluateGridMatchesPerRule compares the one-pass grid with the
// reference loop over seeded random histories: children with several
// delegatees (conflicts) and several delegators of one delegatee (no
// conflict), presence runs crossing the 64-day word boundaries, and M
// values at and past the history length.
func TestEvaluateGridMatchesPerRule(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	children := []string{"185.0.0.0/24", "185.0.1.0/24", "185.0.2.0/23"}
	for trial := 0; trial < 40; trial++ {
		days := []int{1, 2, 63, 64, 65, 129, 200}[trial%7]
		h := NewHistory(day0(), days)
		for keys := 1 + rng.Intn(8); keys > 0; keys-- {
			d := dtest(children[rng.Intn(len(children))], ASN(1+rng.Intn(2)), ASN(10+rng.Intn(3)))
			for runs := 1 + rng.Intn(4); runs > 0; runs-- {
				start, length := rng.Intn(days), 1+rng.Intn(90)
				for x := start; x < start+length; x++ {
					if rng.Float64() < 0.85 {
						h.Observe(x, d)
					}
				}
			}
		}
		ms := []int{1, 2, 5, 10, 63, 64, 65, days - 1, days, days + 3}
		ns := []int{0, 1, 3, 10, 70}
		if days == 1 {
			ms[7] = 1 // days-1 would be an invalid M
		}
		grid, err := h.EvaluateGrid(ms, ns)
		if err != nil {
			t.Fatal(err)
		}
		if len(grid) != len(ms)*len(ns) {
			t.Fatalf("grid has %d cells, want %d", len(grid), len(ms)*len(ns))
		}
		for j, n := range ns {
			for i, m := range ms {
				got, want := grid[j*len(ms)+i], referenceRule(h, m, n)
				if got != want {
					t.Errorf("trial %d (days %d): M=%d N=%d: grid %+v, reference %+v", trial, days, m, n, got, want)
				}
				if r, err := h.EvaluateRule(m, n); err != nil || r != got {
					t.Errorf("trial %d: EvaluateRule(%d, %d) = %+v, %v; grid cell %+v", trial, m, n, r, err, got)
				}
			}
		}
	}

	h := NewHistory(day0(), 10)
	for _, tc := range []struct{ ms, ns []int }{
		{[]int{5, 0}, []int{0}},
		{[]int{5}, []int{0, -1}},
		{[]int{-3, 5}, []int{2}},
	} {
		if _, err := h.EvaluateGrid(tc.ms, tc.ns); !errors.Is(err, ErrBadRule) {
			t.Errorf("EvaluateGrid(%v, %v): err %v, want ErrBadRule", tc.ms, tc.ns, err)
		}
	}
}
