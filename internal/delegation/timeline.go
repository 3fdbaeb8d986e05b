package delegation

import (
	"time"

	"ipv4market/internal/netblock"
)

// Timeline accumulates daily delegation inferences and implements
// extension (v): the 10-day consistency rule that fills gaps caused by
// on-off announcement patterns, unless a conflicting delegation (same
// child prefix, different delegatee) appears in between.
type Timeline struct {
	start time.Time
	days  int
	keys  map[Delegation]*dayset
	// byChild indexes keys by child prefix for conflict detection.
	byChild map[netblock.Prefix][]Delegation
}

type dayset struct{ w []uint64 }

func newDayset(days int) *dayset { return &dayset{w: make([]uint64, (days+63)/64)} }

func (d *dayset) set(i int)      { d.w[i/64] |= 1 << uint(i%64) }
func (d *dayset) get(i int) bool { return d.w[i/64]&(1<<uint(i%64)) != 0 }

func (d *dayset) anyInRange(lo, hi int) bool {
	for i := lo; i < hi; i++ {
		if d.get(i) {
			return true
		}
	}
	return false
}

// NewTimeline covers `days` consecutive days starting at start.
func NewTimeline(start time.Time, days int) *Timeline {
	return &Timeline{
		start:   start.UTC(),
		days:    days,
		keys:    make(map[Delegation]*dayset),
		byChild: make(map[netblock.Prefix][]Delegation),
	}
}

// Days returns the number of days covered.
func (tl *Timeline) Days() int { return tl.days }

// Start returns the first day.
func (tl *Timeline) Start() time.Time { return tl.start }

// DayOf converts a timestamp to a day index, negative before the start.
// Days are floored, so the instants just before start map to -1.
func (tl *Timeline) DayOf(t time.Time) int {
	since := t.Sub(tl.start)
	day := since / (24 * time.Hour)
	if since%(24*time.Hour) < 0 {
		day--
	}
	return int(day)
}

// DateOf converts a day index back to a timestamp.
func (tl *Timeline) DateOf(day int) time.Time {
	return tl.start.Add(time.Duration(day) * 24 * time.Hour)
}

// AddDay records the delegations inferred for one day. Out-of-range days
// are ignored. AddDay mutates shared maps and is not safe for concurrent
// use: callers that infer days in parallel (see InferDays) must fill the
// timeline serially, in day order, from the collected results.
func (tl *Timeline) AddDay(day int, ds []Delegation) {
	if day < 0 || day >= tl.days {
		return
	}
	for _, d := range ds {
		set := tl.keys[d]
		if set == nil {
			set = newDayset(tl.days)
			tl.keys[d] = set
			tl.byChild[d.Child] = append(tl.byChild[d.Child], d)
		}
		set.set(day)
	}
}

// Present reports whether the delegation is recorded for the day.
func (tl *Timeline) Present(day int, d Delegation) bool {
	set := tl.keys[d]
	return set != nil && day >= 0 && day < tl.days && set.get(day)
}

// NumKeys returns the number of distinct delegations ever observed.
func (tl *Timeline) NumKeys() int { return len(tl.keys) }

func (tl *Timeline) conflictBetween(d Delegation, lo, hi int) bool {
	for _, other := range tl.byChild[d.Child] {
		if other.To == d.To {
			continue
		}
		if tl.keys[other].anyInRange(lo+1, hi) {
			return true
		}
	}
	return false
}

// FillGaps applies the consistency rule with the given window (the paper
// uses 10 days): when a delegation is seen on two days at most `window`
// apart with no conflicting delegation in between, the gap days are filled.
// It returns the number of day-slots filled.
func (tl *Timeline) FillGaps(window int) int {
	filled := 0
	for d, set := range tl.keys {
		last := -1
		for x := 0; x < tl.days; x++ {
			if !set.get(x) {
				continue
			}
			if last >= 0 && x-last > 1 && x-last <= window && !tl.conflictBetween(d, last, x) {
				for i := last + 1; i < x; i++ {
					if !set.get(i) {
						set.set(i)
						filled++
					}
				}
			}
			last = x
		}
	}
	return filled
}

// DayStats summarizes one day of the timeline.
type DayStats struct {
	Date         time.Time
	Delegations  int
	DelegatedIPs uint64
}

// DailyStats computes, for every day, the number of delegations present
// and the number of distinct delegated addresses — the two series of
// Figure 6.
func (tl *Timeline) DailyStats() []DayStats {
	out := make([]DayStats, tl.days)
	sets := make([]*netblock.Set, tl.days)
	for i := range out {
		out[i].Date = tl.DateOf(i)
		sets[i] = netblock.NewSet()
	}
	for d, set := range tl.keys {
		for x := 0; x < tl.days; x++ {
			if set.get(x) {
				out[x].Delegations++
				sets[x].AddPrefix(d.Child)
			}
		}
	}
	for i := range out {
		out[i].DelegatedIPs = sets[i].Size()
	}
	return out
}

// DelegationsOn returns the delegations present on the given day.
func (tl *Timeline) DelegationsOn(day int) []Delegation {
	var out []Delegation
	for d, set := range tl.keys {
		if day >= 0 && day < tl.days && set.get(day) {
			out = append(out, d)
		}
	}
	sortDelegations(out)
	return out
}

// SizeShares returns the fraction of delegations with the given child
// prefix lengths, averaged over the day range [fromDay, toDay).
func (tl *Timeline) SizeShares(fromDay, toDay int, lengths ...int) map[int]float64 {
	if fromDay < 0 {
		fromDay = 0
	}
	if toDay > tl.days {
		toDay = tl.days
	}
	want := make(map[int]bool, len(lengths))
	for _, l := range lengths {
		want[l] = true
	}
	counts := make(map[int]int)
	total := 0
	for d, set := range tl.keys {
		bits := d.Child.Bits()
		for x := fromDay; x < toDay; x++ {
			if set.get(x) {
				total++
				if want[bits] {
					counts[bits]++
				}
			}
		}
	}
	out := make(map[int]float64, len(lengths))
	for _, l := range lengths {
		if total > 0 {
			out[l] = float64(counts[l]) / float64(total)
		} else {
			out[l] = 0
		}
	}
	return out
}
