package bgp

import (
	"cmp"
	"math/bits"
	"slices"

	"ipv4market/internal/netblock"
)

// OriginSurvey aggregates prefix-origin observations across the monitors
// of one or more collectors. It is the input to the delegation-inference
// pipeline: for each prefix it records which origin ASes announce it and
// how many monitors see each (prefix, origin) pair — step (i) and the raw
// material for steps (ii) and (iii) of the paper's algorithm.
//
// Monitor IDs are interned to dense indexes, and each pair holds the set
// of monitors seeing it as a bitset, so recording a sighting costs a bit
// set and no allocation. A survey fed from RIBs (AddView, Observe) finds
// each route's prefix record through a map; a survey whose prefixes are
// known up front (NewPrefixSurvey) records sightings by record index,
// one monitor at a time (ObserveAt) or a bitset of them (ObserveSetAt),
// with no lookup at all.
type OriginSurvey struct {
	monitors map[string]int // monitor ID → index
	// index maps each recorded prefix to its record; it is built on the
	// first Observe, so a survey fed only through ObserveAt has none.
	index    map[netblock.Prefix]int
	prefixes []prefixObs
	// more holds the origins of a record after its first, each chained
	// to the record's next; words holds the monitor sets' words after
	// their first. Records index both by int32, so no record holds a
	// pointer and the collector never scans them.
	more  []originObs
	words []uint64
}

// prefixObs is everything the survey knows about one prefix.
type prefixObs struct {
	prefix netblock.Prefix
	// asSet is set if any monitor saw the prefix originated by an AS_SET
	// (such prefixes are discarded by step (iii)).
	asSet bool
	// origins counts the origin ASes seen; a prefix seen only via
	// AS_SET has none. The first is inline, the rest chained in more.
	origins int32
	first   originObs
}

// originObs is one origin AS with the set of monitors seeing it: the
// first 64 in lo, the rest in words[hi:hi+nhi], word w of which holds
// monitors 64(w+1) to 64(w+1)+63.
type originObs struct {
	origin ASN
	// next is the index in more of the record's next origin, plus one;
	// 0 ends the chain.
	next    int32
	lo      uint64
	hi, nhi int32
}

// firstOrigin returns the record's first origin, or nil if it has none.
func (obs *prefixObs) firstOrigin() *originObs {
	if obs.origins == 0 {
		return nil
	}
	return &obs.first
}

// nextOrigin returns the origin chained after o, or nil.
func (s *OriginSurvey) nextOrigin(o *originObs) *originObs {
	if o.next == 0 {
		return nil
	}
	return &s.more[o.next-1]
}

// overflow returns o's monitor words after its first.
func (s *OriginSurvey) overflow(o *originObs) []uint64 {
	return s.words[o.hi : o.hi+o.nhi]
}

// growWords makes o's overflow n words long, n > o.nhi, by moving it to
// the end of words.
func (s *OriginSurvey) growWords(o *originObs, n int) {
	start := len(s.words)
	s.words = append(s.words, s.overflow(o)...)
	for len(s.words) < start+n {
		s.words = append(s.words, 0)
	}
	o.hi, o.nhi = int32(start), int32(n)
}

// add adds monitor i to o's set.
func (s *OriginSurvey) add(o *originObs, i int) {
	if i < 64 {
		o.lo |= 1 << uint(i)
		return
	}
	w := i/64 - 1
	if w >= int(o.nhi) {
		s.growWords(o, w+1)
	}
	s.words[int(o.hi)+w] |= 1 << uint(i%64)
}

// addWords adds the monitors of a non-empty bitset whose word w holds
// monitors 64w to 64w+63, growing the overflow only to its last
// non-zero word.
func (s *OriginSurvey) addWords(o *originObs, words []uint64) {
	o.lo |= words[0]
	last := len(words) - 1
	for last > 0 && words[last] == 0 {
		last--
	}
	if last > int(o.nhi) {
		s.growWords(o, last)
	}
	for w := 1; w <= last; w++ {
		s.words[int(o.hi)+w-1] |= words[w]
	}
}

// monitorCount returns the size of o's monitor set.
func (s *OriginSurvey) monitorCount(o *originObs) int {
	n := bits.OnesCount64(o.lo)
	for _, w := range s.overflow(o) {
		n += bits.OnesCount64(w)
	}
	return n
}

// NewOriginSurvey returns an empty survey.
func NewOriginSurvey() *OriginSurvey {
	return &OriginSurvey{monitors: make(map[string]int)}
}

// NewPrefixSurvey returns an empty survey with one record for each of
// the distinct prefixes, record i for prefixes[i], for ObserveAt and
// ObserveSetAt. Each record holds its first origin inline, so only a
// prefix with several origins, or a monitor past the first 64, grows
// the survey later. Prefixes in ascending order leave Pairs an
// already-sorted list.
func NewPrefixSurvey(prefixes []netblock.Prefix) *OriginSurvey {
	s := NewOriginSurvey()
	s.Reset(prefixes)
	return s
}

// Reset empties the survey, monitors included, and gives it one record
// for each of the distinct prefixes, as NewPrefixSurvey does. It keeps
// the survey's storage, so refilling a survey for another day of the
// same size allocates nothing.
func (s *OriginSurvey) Reset(prefixes []netblock.Prefix) {
	if s.monitors == nil {
		s.monitors = make(map[string]int)
	}
	clear(s.monitors)
	s.index = nil
	s.prefixes = slices.Grow(s.prefixes[:0], len(prefixes))[:len(prefixes)]
	for i, p := range prefixes {
		s.prefixes[i] = prefixObs{prefix: p}
	}
	s.more, s.words = s.more[:0], s.words[:0]
}

// AddView records one monitor's sanitized routes. The monitor ID must be
// globally unique (e.g. "rrc00:198.51.100.7"); a repeated ID adds to the
// same monitor.
func (s *OriginSurvey) AddView(monitorID string, routes []Route) {
	m := s.AddMonitor(monitorID)
	for _, r := range routes {
		s.Observe(m, r.Prefix, r.Path)
	}
}

// AddMonitor registers a monitor ID, even one that sees no routes, and
// returns its index for Observe and ObserveAt. Registering an ID again
// returns the index it already has.
func (s *OriginSurvey) AddMonitor(monitorID string) int {
	if m, ok := s.monitors[monitorID]; ok {
		return m
	}
	m := len(s.monitors)
	s.monitors[monitorID] = m
	return m
}

// Observe records that monitor m (an AddMonitor index) holds one
// sanitized route for prefix p with the given path. A path ending in an
// AS_SET flags the prefix; any other path counts m towards the pair of
// p and the path's origin AS. The path is not retained.
func (s *OriginSurvey) Observe(m int, p netblock.Prefix, path ASPath) {
	asSet := path.EndsInSet()
	origin, ok := path.OriginAS()
	if !asSet && !ok {
		return
	}
	s.observe(s.record(p), m, origin, asSet)
}

// ObserveAt records that monitor m holds one sanitized route for the
// prefix of record i (see NewPrefixSurvey): one whose path ends in an
// AS_SET if asSet, else one originated by origin. It is Observe with
// the record and the path's outcome already known.
func (s *OriginSurvey) ObserveAt(m, i int, origin ASN, asSet bool) {
	s.observe(i, m, origin, asSet)
}

// ObserveSetAt records ObserveAt(m, i, origin, asSet) for every monitor
// m in monitors, a bitset whose word w holds monitors 64w to 64w+63, in
// one step: a survey that knows each record's sightings as a bitset
// sets them without a call per monitor. The words are not retained.
func (s *OriginSurvey) ObserveSetAt(i int, origin ASN, asSet bool, monitors []uint64) {
	if !slices.ContainsFunc(monitors, func(w uint64) bool { return w != 0 }) {
		return
	}
	if asSet {
		s.prefixes[i].asSet = true
		return
	}
	s.addWords(s.originObs(i, origin), monitors)
}

func (s *OriginSurvey) observe(i, m int, origin ASN, asSet bool) {
	if asSet {
		s.prefixes[i].asSet = true
		return
	}
	s.add(s.originObs(i, origin), m)
}

// originObs returns record i's pair with origin, adding the pair if it
// is new. The pointer is valid until the survey next grows more.
func (s *OriginSurvey) originObs(i int, origin ASN) *originObs {
	obs := &s.prefixes[i]
	if obs.origins == 0 {
		obs.origins = 1
		obs.first = originObs{origin: origin}
		return &obs.first
	}
	// last is the chain's last origin as an index into more, -1 for
	// obs.first: the append below may move more, so a pointer into it
	// would link the new origin into the old array.
	last := -1
	for o := &obs.first; ; o = &s.more[o.next-1] {
		if o.origin == origin {
			return o
		}
		if o.next == 0 {
			break
		}
		last = int(o.next - 1)
	}
	s.more = append(s.more, originObs{origin: origin})
	if last < 0 {
		obs.first.next = int32(len(s.more))
	} else {
		s.more[last].next = int32(len(s.more))
	}
	obs.origins++
	return &s.more[len(s.more)-1]
}

// record returns p's record index, creating the record on first sight.
func (s *OriginSurvey) record(p netblock.Prefix) int {
	if s.index == nil {
		s.index = make(map[netblock.Prefix]int, len(s.prefixes))
		for i, obs := range s.prefixes {
			s.index[obs.prefix] = i
		}
	}
	i, ok := s.index[p]
	if !ok {
		i = len(s.prefixes)
		s.index[p] = i
		s.prefixes = append(s.prefixes, prefixObs{prefix: p})
	}
	return i
}

// NumMonitors returns the number of monitors contributing to the survey.
func (s *OriginSurvey) NumMonitors() int { return len(s.monitors) }

// PrefixOrigin is one observed (prefix, origin) pair with its visibility.
type PrefixOrigin struct {
	Prefix   netblock.Prefix
	Origin   ASN
	Monitors int  // monitors seeing this pair
	MOAS     bool // prefix also originated by other ASes
	ASSet    bool // prefix originated via AS_SET at some monitor
}

// Visibility returns the fraction of all monitors seeing the pair.
func (po PrefixOrigin) Visibility(totalMonitors int) float64 {
	if totalMonitors == 0 {
		return 0
	}
	return float64(po.Monitors) / float64(totalMonitors)
}

// Pairs returns every (prefix, origin) pair with its monitor count and
// MOAS/AS_SET flags, sorted by prefix then origin.
func (s *OriginSurvey) Pairs() []PrefixOrigin {
	out := make([]PrefixOrigin, 0, len(s.prefixes))
	for i := range s.prefixes {
		obs := &s.prefixes[i]
		for o := obs.firstOrigin(); o != nil; o = s.nextOrigin(o) {
			out = append(out, PrefixOrigin{
				Prefix:   obs.prefix,
				Origin:   o.origin,
				Monitors: s.monitorCount(o),
				MOAS:     obs.origins > 1,
				ASSet:    obs.asSet,
			})
		}
	}
	slices.SortFunc(out, func(a, b PrefixOrigin) int {
		if c := a.Prefix.Compare(b.Prefix); c != 0 {
			return c
		}
		return cmp.Compare(a.Origin, b.Origin)
	})
	return out
}

// EachVisiblePrefix calls fn, in record order, once for each prefix no
// monitor saw originated by an AS_SET and that some origin AS announces
// to at least minVisibility of all monitors: the prefixes of the Pairs
// entries that pass both filters, without building or sorting Pairs.
func (s *OriginSurvey) EachVisiblePrefix(minVisibility float64, fn func(netblock.Prefix)) {
	total := s.NumMonitors()
	for i := range s.prefixes {
		obs := &s.prefixes[i]
		if obs.asSet {
			continue
		}
		for o := obs.firstOrigin(); o != nil; o = s.nextOrigin(o) {
			if total > 0 && float64(s.monitorCount(o))/float64(total) >= minVisibility {
				fn(obs.prefix)
				break
			}
		}
	}
}

// CleanPairs applies steps (ii) and (iii) of the inference algorithm:
// it keeps pairs seen by at least minVisibility of all monitors (the paper
// uses 0.5) and drops prefixes originated by AS_SETs or multiple ASes.
// The result maps each surviving prefix to its unique origin.
func (s *OriginSurvey) CleanPairs(minVisibility float64) map[netblock.Prefix]ASN {
	total := s.NumMonitors()
	out := make(map[netblock.Prefix]ASN)
	for i := range s.prefixes {
		obs := &s.prefixes[i]
		if obs.asSet || obs.origins != 1 {
			continue
		}
		if total > 0 && float64(s.monitorCount(&obs.first))/float64(total) >= minVisibility {
			out[obs.prefix] = obs.first.origin
		}
	}
	return out
}

// RawPairs returns the step-(i) view with no filtering: each prefix maps
// to every origin that announced it anywhere. Prefixes announced via
// AS_SET are excluded (they carry no usable origin). This is the input
// the baseline Krenc-Feldmann algorithm consumes.
func (s *OriginSurvey) RawPairs() map[netblock.Prefix][]ASN {
	out := make(map[netblock.Prefix][]ASN, len(s.prefixes))
	for i := range s.prefixes {
		obs := &s.prefixes[i]
		if obs.origins == 0 {
			continue
		}
		origins := make([]ASN, 0, obs.origins)
		for o := obs.firstOrigin(); o != nil; o = s.nextOrigin(o) {
			origins = append(origins, o.origin)
		}
		slices.Sort(origins)
		out[obs.prefix] = origins
	}
	return out
}
