package rpki

import (
	"errors"
	"math/bits"
	"time"
)

// History records, day by day, which delegations were observable. It is
// the input to the consistency-rule evaluation of the paper's appendix:
// rules of the form "if a delegation is seen on day X and day X+M (with no
// conflicting delegation in between), it also existed for all but at most
// N of the days in between".
type History struct {
	start time.Time
	days  int
	// presence per delegation key.
	keys map[delegKey]*dayset
	// byChild groups keys by child prefix for conflict detection.
	byChild map[childKey][]delegKey
}

type delegKey struct {
	child childKey
	from  ASN
	to    ASN
}

type childKey struct {
	addr uint32
	bits uint8
}

// dayset is a fixed-size bitset over day indexes.
type dayset struct {
	w []uint64
}

func newDayset(days int) *dayset { return &dayset{w: make([]uint64, (days+63)/64)} }

func (d *dayset) set(i int)      { d.w[i/64] |= 1 << uint(i%64) }
func (d *dayset) get(i int) bool { return d.w[i/64]&(1<<uint(i%64)) != 0 }

// word returns the 64 bits of d starting at bit i: bit j of the result is
// bit i+j of d, and bits past the end read as zero.
func (d *dayset) word(i int) uint64 {
	q, r := i/64, uint(i%64)
	var w uint64
	if q < len(d.w) {
		w = d.w[q] >> r
	}
	if r != 0 && q+1 < len(d.w) {
		w |= d.w[q+1] << (64 - r)
	}
	return w
}

// prefixCounts fills c, of length days+1, with running presence counts:
// c[x] is the number of set bits in [0, x). It reads the set one word at
// a time.
func (d *dayset) prefixCounts(c []int32) {
	c[0] = 0
	run, n := int32(0), len(c)-1
	for i, w := range d.w {
		for x, end := i*64, min(i*64+64, n); x < end; x++ {
			run += int32(w & 1)
			w >>= 1
			c[x+1] = run
		}
	}
}

// anyInRange reports whether any bit in [lo, hi) is set.
func (d *dayset) anyInRange(lo, hi int) bool {
	for i := lo; i < hi; {
		if i%64 == 0 && i+64 <= hi {
			if d.w[i/64] != 0 {
				return true
			}
			i += 64
			continue
		}
		if d.get(i) {
			return true
		}
		i++
	}
	return false
}

// NewHistory creates a history covering `days` consecutive days starting
// at start (UTC midnight).
func NewHistory(start time.Time, days int) *History {
	return &History{
		start:   start.UTC(),
		days:    days,
		keys:    make(map[delegKey]*dayset),
		byChild: make(map[childKey][]delegKey),
	}
}

// Days returns the number of days covered.
func (h *History) Days() int { return h.days }

// Start returns the first day.
func (h *History) Start() time.Time { return h.start }

// DayOf converts a timestamp to a day index (negative or >= Days() if out
// of range). Days are floored, so any instant before start is negative.
func (h *History) DayOf(t time.Time) int {
	since := t.Sub(h.start)
	day := since / (24 * time.Hour)
	if since%(24*time.Hour) < 0 {
		day--
	}
	return int(day)
}

// Observe records that the delegation was visible on the given day.
// Out-of-range days are ignored. A caller recording many days of one
// delegation should use a Recorder, which finds the delegation's
// presence set once rather than on every call.
func (h *History) Observe(day int, d Delegation) {
	r := h.Recorder(d)
	r.Observe(day)
}

// Recorder records the days on which one delegation is visible.
type Recorder struct {
	h  *History
	k  delegKey
	ds *dayset // nil until the first in-range Observe
}

// Recorder returns a Recorder for the delegation. The delegation's key
// is looked up, or created, on the Recorder's first in-range Observe,
// so a delegation observed on no day adds no key, and keys are created
// in the order of their first observation, as with History.Observe.
func (h *History) Recorder(d Delegation) Recorder {
	ck := childKey{uint32(d.Child.Addr()), uint8(d.Child.Bits())}
	return Recorder{h: h, k: delegKey{child: ck, from: d.From, to: d.To}}
}

// Observe records that the delegation was visible on the given day.
// Out-of-range days are ignored.
func (r *Recorder) Observe(day int) {
	h := r.h
	if day < 0 || day >= h.days {
		return
	}
	if r.ds == nil {
		r.ds = h.keys[r.k]
		if r.ds == nil {
			r.ds = newDayset(h.days)
			h.keys[r.k] = r.ds
			h.byChild[r.k.child] = append(h.byChild[r.k.child], r.k)
		}
	}
	r.ds.set(day)
}

// NumDelegations returns the number of distinct delegation keys observed.
func (h *History) NumDelegations() int { return len(h.keys) }

// ObservedOn reports whether the delegation was seen on the day.
func (h *History) ObservedOn(day int, d Delegation) bool {
	ck := childKey{uint32(d.Child.Addr()), uint8(d.Child.Bits())}
	ds := h.keys[delegKey{child: ck, from: d.From, to: d.To}]
	return ds != nil && day >= 0 && day < h.days && ds.get(day)
}

// conflictIn reports whether, strictly between days lo and hi, the child
// prefix was delegated to a *different* delegatee than k.to.
func (h *History) conflictIn(k delegKey, lo, hi int) bool {
	for _, other := range h.byChild[k.child] {
		if other.to == k.to {
			continue
		}
		if h.keys[other].anyInRange(lo+1, hi) {
			return true
		}
	}
	return false
}

// RuleResult is the outcome of evaluating one (M, N) consistency rule.
type RuleResult struct {
	M        int // window length in days
	N        int // tolerated missing days
	Premises int // cases where the premise held
	Failures int // premises whose conclusion was violated
}

// FailRate returns Failures/Premises (0 if no premises).
func (r RuleResult) FailRate() float64 {
	if r.Premises == 0 {
		return 0
	}
	return float64(r.Failures) / float64(r.Premises)
}

// ErrBadRule reports invalid rule parameters.
var ErrBadRule = errors.New("rpki: invalid consistency-rule parameters")

// EvaluateRule computes the fail rate of the (M, N) rule over the history:
// for every delegation key and every day X with the key present on X and
// X+M and no conflicting delegation strictly in between (the premise), the
// conclusion holds iff at most N of the M-1 days strictly in between lack
// the delegation.
func (h *History) EvaluateRule(m, n int) (RuleResult, error) {
	grid, err := h.EvaluateGrid([]int{m}, []int{n})
	if err != nil {
		return RuleResult{}, err
	}
	return grid[0], nil
}

// EvaluateGrid evaluates the rule (see EvaluateRule) for every combination
// of the given M and N values — the data behind Figure 5. Results are
// ordered by N then M.
//
// It makes one pass per delegation key. For each M, the days X present
// on both X and X+M are the key's day set ANDed with itself shifted by
// M, 64 days to a word, and are walked set bit by set bit. Running
// counts of the key's presence, and of the union of the presence of the
// child's other delegatees, answer "how many days in between are
// missing" and "is there a conflict in between" in O(1) per premise.
// Each M keeps a histogram of missing-day counts over its premises, from
// which every N reads its failures.
func (h *History) EvaluateGrid(ms, ns []int) ([]RuleResult, error) {
	for _, m := range ms {
		if m < 1 {
			return nil, ErrBadRule
		}
	}
	for _, n := range ns {
		if n < 0 {
			return nil, ErrBadRule
		}
	}
	premises := make([]int, len(ms))
	missing := make([][]int, len(ms)) // missing[i][k]: premises of ms[i] missing k days
	for i, m := range ms {
		if m < h.days {
			missing[i] = make([]int, m)
		}
	}
	present := make([]int32, h.days+1)
	conflicts := make([]int32, h.days+1)
	others := newDayset(h.days)
	for k, ds := range h.keys {
		ds.prefixCounts(present)
		conflicted := h.otherDelegatees(k, others)
		if conflicted {
			others.prefixCounts(conflicts)
		}
		for i, m := range ms {
			limit := h.days - m // premise days X satisfy X+M < days
			for q := 0; q*64 < limit; q++ {
				both := ds.w[q] & ds.word(q*64+m)
				if rest := limit - q*64; rest < 64 {
					both &= 1<<uint(rest) - 1
				}
				for ; both != 0; both &= both - 1 {
					x := q*64 + bits.TrailingZeros64(both)
					if conflicted && conflicts[x+m] != conflicts[x+1] {
						continue
					}
					premises[i]++
					missing[i][m-1-int(present[x+m]-present[x+1])]++
				}
			}
		}
	}
	out := make([]RuleResult, 0, len(ms)*len(ns))
	for _, n := range ns {
		for i, m := range ms {
			r := RuleResult{M: m, N: n, Premises: premises[i]}
			for k := n + 1; k < len(missing[i]); k++ {
				r.Failures += missing[i][k]
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// otherDelegatees sets u to the union of the presence of every key that
// delegates k's child to a different delegatee, and reports whether
// there is any such key.
func (h *History) otherDelegatees(k delegKey, u *dayset) bool {
	clear(u.w)
	found := false
	for _, other := range h.byChild[k.child] {
		if other.to == k.to {
			continue
		}
		found = true
		for i, w := range h.keys[other].w {
			u.w[i] |= w
		}
	}
	return found
}

// FillGaps applies the paper's chosen consistency rule to a presence
// bitmap: when the same delegation is seen on days X and X+M' for any
// M' ≤ m with no conflicting delegation in between, the days in between
// are marked present. It returns the per-key number of filled days, and
// mutates the history's presence sets. The paper uses m = 10.
func (h *History) FillGaps(m int) int {
	filled := 0
	for k, ds := range h.keys {
		last := -1
		for x := 0; x < h.days; x++ {
			if !ds.get(x) {
				continue
			}
			if last >= 0 && x-last > 1 && x-last <= m && !h.conflictIn(k, last, x) {
				for i := last + 1; i < x; i++ {
					if !ds.get(i) {
						ds.set(i)
						filled++
					}
				}
			}
			last = x
		}
	}
	return filled
}

// PresenceCount returns, for each day, the number of delegations present
// (after any gap filling).
func (h *History) PresenceCount() []int {
	out := make([]int, h.days)
	for _, ds := range h.keys {
		for x := 0; x < h.days; x++ {
			if ds.get(x) {
				out[x]++
			}
		}
	}
	return out
}

// DailyChurn returns, for each day, the number of presence transitions:
// delegations appearing (absent the day before, present today) plus
// delegations disappearing (present the day before, absent today). Day
// 0 counts first appearances. Churn storms show up as spikes in this
// series — the observability signal the scenario adversarial worlds
// are built to produce.
func (h *History) DailyChurn() []int {
	out := make([]int, h.days)
	for _, ds := range h.keys {
		prev := false
		for x := 0; x < h.days; x++ {
			cur := ds.get(x)
			if cur != prev {
				out[x]++
			}
			prev = cur
		}
	}
	return out
}
