package temporal

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"
	"unsafe"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
)

// This file holds the pieces the index's columns are made of: day
// numbers for dates, one interned string table, and sorted prefix
// arrays with covering-parent links.

const secondsPerDay = 24 * 60 * 60

// zeroDay is the day number of the zero time.Time, 0001-01-01. As the
// zero time does in the exported types, it marks an open end.
const zeroDay int32 = -719162

// day truncates a timestamp to its UTC calendar day. The index is
// date-granular: every event in the study lands on a UTC midnight already,
// and queries are keyed by date, so a UTC midnight is returned as is
// (less any monotonic clock reading) without a calendar round trip.
func day(t time.Time) time.Time {
	if t.IsZero() {
		return t
	}
	if t.Location() == time.UTC && t.Nanosecond() == 0 && t.Unix()%secondsPerDay == 0 {
		return t.Round(0)
	}
	y, m, d := t.UTC().Date()
	return time.Date(y, m, d, 0, 0, 0, 0, time.UTC)
}

// dayNumber returns t's UTC calendar day, counted from 1970-01-01.
func dayNumber(t time.Time) int64 {
	s := t.Unix()
	d := s / secondsPerDay
	if s%secondsPerDay < 0 {
		d--
	}
	return d
}

// storedDay returns the day number of a date the index keeps. Kept days
// lie strictly inside the int32 range, so a clamped query day compares
// with them as its date would.
func storedDay(t time.Time) (int32, error) {
	d := dayNumber(t)
	if d <= math.MinInt32 || d >= math.MaxInt32 {
		return 0, fmt.Errorf("temporal: date %s out of range", t.UTC().Format(time.RFC3339))
	}
	return int32(d), nil
}

// queryDay returns the day number of a query date, clamped to int32.
func queryDay(t time.Time) int32 {
	return int32(min(max(dayNumber(t), math.MinInt32), math.MaxInt32))
}

// dateOf returns day d as a UTC midnight, as day would; zeroDay gives the
// zero time.
func dateOf(d int32) time.Time {
	return time.Unix(int64(d)*secondsPerDay, 0).UTC()
}

// rirCode returns a RIR as the byte the columns store.
func rirCode(r registry.RIR) (uint8, error) {
	if r < 0 || r > math.MaxUint8 {
		return 0, fmt.Errorf("temporal: RIR %d out of range", int(r))
	}
	return uint8(r), nil
}

// strTable is the interned strings of an index: string i is
// blob[off[i]:off[i+1]], so an answer's strings share one allocation.
type strTable struct {
	blob string
	off  []uint32
}

// at returns string id.
func (t *strTable) at(id int32) string { return t.blob[t.off[id]:t.off[id+1]] }

// interner assigns string ids in first-seen order while New reads its
// input.
type interner struct {
	ids  map[string]int32
	strs []string
	size int
}

func (t *interner) id(s string) int32 {
	if id, ok := t.ids[s]; ok {
		return id
	}
	id := int32(len(t.strs))
	t.ids[s] = id
	t.strs = append(t.strs, s)
	t.size += len(s)
	return id
}

// table packs the interned strings into one blob.
func (t *interner) table() strTable {
	var b strings.Builder
	b.Grow(t.size)
	off := make([]uint32, len(t.strs)+1)
	for i, s := range t.strs {
		b.WriteString(s)
		off[i+1] = uint32(b.Len())
	}
	return strTable{blob: b.String(), off: off}
}

// forest is a set of distinct prefixes in Compare order, each linked to
// the nearest prefix of the set covering it: a trie of those prefixes
// alone, held as parent links. Prefixes either nest or are disjoint, so
// every prefix of the set covering some prefix is on one parent chain,
// and one ordered sweep builds the links.
type forest struct {
	prefixes []netblock.Prefix
	parent   []int32 // nearest covering prefix, -1 at a root
}

// newForest links prefixes, which must be distinct and in Compare order.
func newForest(prefixes []netblock.Prefix) forest {
	f := forest{prefixes: prefixes, parent: make([]int32, len(prefixes))}
	for k, p := range prefixes {
		f.parent[k] = f.covering(int32(k)-1, p, nil)
	}
	return f
}

// covering returns the most specific forest prefix covering p, given the
// index of the last forest prefix that sorts on or before p (-1 if none),
// or -1 when no forest prefix covers p. A prefix covering p sorts before
// it, and covers every prefix sorting between the two, so it is on that
// last prefix's parent chain. probe, when set, is called once per prefix
// visited.
func (f *forest) covering(last int32, p netblock.Prefix, probe func()) int32 {
	for k := last; k >= 0; k = f.parent[k] {
		if probe != nil {
			probe()
		}
		if f.prefixes[k].Covers(p) {
			return k
		}
	}
	return -1
}

// lookup returns the most specific forest prefix covering p (p itself
// when present), or -1: a binary search, then a parent walk. probe,
// when set, is called once per search step and per prefix visited.
func (f *forest) lookup(p netblock.Prefix, probe func()) int32 {
	last := sort.Search(len(f.prefixes), func(j int) bool {
		if probe != nil {
			probe()
		}
		return f.prefixes[j].Compare(p) > 0
	}) - 1
	return f.covering(int32(last), p, probe)
}

// colBytes returns the bytes of a column's backing array.
func colBytes[T any](col []T) int {
	var row T
	return cap(col) * int(unsafe.Sizeof(row))
}
