package delegation

import (
	"testing"
	"time"

	"ipv4market/internal/netblock"
)

// These tests pin the Timeline's boundary semantics — the edges the
// temporal serving layer depends on: day/date round-trips at the window
// edges, presence exactly on an event day versus the day before the
// first event, and how same-day conflicting delegations interact with
// the gap-filling consistency rule.

func boundaryDelegation(childOctet byte, to ASN) Delegation {
	return Delegation{
		Parent: netblock.MustPrefix(netblock.AddrFrom4(10, 0, 0, 0), 8),
		Child:  netblock.MustPrefix(netblock.AddrFrom4(10, childOctet, 0, 0), 16),
		From:   ASN(64500),
		To:     to,
	}
}

// TestTimelineDayDateRoundTrip: DayOf and DateOf are inverses across the
// whole window, including both edges, and DayOf is well-defined (out of
// range, not clamped) just outside it.
func TestTimelineDayDateRoundTrip(t *testing.T) {
	start := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	tl := NewTimeline(start, 40)

	for _, day := range []int{0, 1, 39} {
		d := tl.DateOf(day)
		if got := tl.DayOf(d); got != day {
			t.Errorf("DayOf(DateOf(%d)) = %d", day, got)
		}
	}
	if got := tl.DayOf(start.AddDate(0, 0, -1)); got != -1 {
		t.Errorf("day before the window: DayOf = %d, want -1", got)
	}
	if got := tl.DayOf(start.AddDate(0, 0, 40)); got != 40 {
		t.Errorf("day after the window: DayOf = %d, want 40", got)
	}
	// A mid-day timestamp lands on its calendar day, not the next one.
	if got := tl.DayOf(start.AddDate(0, 0, 5).Add(13 * time.Hour)); got != 5 {
		t.Errorf("mid-day timestamp: DayOf = %d, want 5", got)
	}
	// Days are floored: the instants just before start are day -1, not
	// day 0, so AddDay ignores them.
	for _, tc := range []struct {
		at   time.Time
		want int
	}{
		{start.Add(-time.Nanosecond), -1},
		{start.Add(-13 * time.Hour), -1},
		{start, 0},
		{start.Add(13 * time.Hour), 0},
	} {
		if got := tl.DayOf(tc.at); got != tc.want {
			t.Errorf("DayOf(%s) = %d, want %d", tc.at, got, tc.want)
		}
	}
}

// TestTimelineEventDayBoundaries: a delegation recorded on day N is
// present exactly on N — not the day before its first observation, not
// after its last — and out-of-range days answer false, never panic.
func TestTimelineEventDayBoundaries(t *testing.T) {
	tl := NewTimeline(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC), 30)
	d := boundaryDelegation(1, 65001)
	tl.AddDay(10, []Delegation{d})
	tl.AddDay(11, []Delegation{d})

	for day, want := range map[int]bool{
		9:  false, // before the first event
		10: true,  // exactly on the event day
		11: true,
		12: false, // after the last event
		-1: false, // outside the window entirely
		30: false,
	} {
		if got := tl.Present(day, d); got != want {
			t.Errorf("Present(%d) = %v, want %v", day, got, want)
		}
	}
	// A delegation never observed is absent everywhere, including on days
	// where other delegations are present.
	if tl.Present(10, boundaryDelegation(2, 65002)) {
		t.Error("never-observed delegation reported present")
	}

	// AddDay outside the window is ignored, not recorded and not a panic.
	other := boundaryDelegation(3, 65003)
	tl.AddDay(-1, []Delegation{other})
	tl.AddDay(30, []Delegation{other})
	if tl.NumKeys() != 1 {
		t.Errorf("out-of-range AddDay leaked a key: NumKeys = %d, want 1", tl.NumKeys())
	}
}

// TestTimelineFillGapsBoundaries: the consistency rule fills a gap of at
// most `window` days and leaves wider gaps alone — exactly at the
// boundary, a gap of window days fills and window+1 does not.
func TestTimelineFillGapsBoundaries(t *testing.T) {
	tl := NewTimeline(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC), 40)
	atWindow := boundaryDelegation(1, 65001)
	tl.AddDay(0, []Delegation{atWindow})
	tl.AddDay(10, []Delegation{atWindow}) // 10 days apart == window
	pastWindow := boundaryDelegation(2, 65002)
	tl.AddDay(20, []Delegation{pastWindow})
	tl.AddDay(31, []Delegation{pastWindow}) // 11 days apart > window

	filled := tl.FillGaps(10)
	if filled != 9 {
		t.Errorf("FillGaps filled %d day-slots, want 9", filled)
	}
	for day := 1; day < 10; day++ {
		if !tl.Present(day, atWindow) {
			t.Errorf("gap day %d not filled for a window-sized gap", day)
		}
	}
	for day := 21; day < 31; day++ {
		if tl.Present(day, pastWindow) {
			t.Errorf("gap day %d filled across a gap wider than the window", day)
		}
	}
}

// TestTimelineSameDayConflict: two delegations of the same child to
// different delegatees can coexist on one day (the inference records
// both), and a conflicting observation between two sightings blocks
// gap-filling — but a conflict on the endpoints themselves does not.
func TestTimelineSameDayConflict(t *testing.T) {
	tl := NewTimeline(time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC), 30)
	a := boundaryDelegation(1, 65001)
	b := a
	b.To = ASN(65002) // same child, different delegatee: a conflict pair

	// Both recorded on the same day: the timeline keeps both.
	tl.AddDay(5, []Delegation{a, b})
	if !tl.Present(5, a) || !tl.Present(5, b) {
		t.Fatal("same-day conflicting delegations not both recorded")
	}

	// a seen again on day 12; b's only sighting is day 5 — an endpoint of
	// the gap, which the rule tolerates (the conflict must be strictly
	// between the sightings).
	tl.AddDay(12, []Delegation{a})
	// c conflicts with a strictly inside the second gap.
	tl.AddDay(14, []Delegation{a})
	tl.AddDay(20, []Delegation{a})
	c := a
	c.To = ASN(65003)
	tl.AddDay(17, []Delegation{c})

	tl.FillGaps(10)
	for day := 6; day < 12; day++ {
		if !tl.Present(day, a) {
			t.Errorf("day %d: endpoint-only conflict wrongly blocked gap-filling", day)
		}
	}
	for day := 15; day < 20; day++ {
		if day == 17 {
			continue // c's own day; a was never observed there
		}
		if tl.Present(day, a) {
			t.Errorf("day %d: gap filled across a conflicting delegation on day 17", day)
			break
		}
	}
}
