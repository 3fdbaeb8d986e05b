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
}

// prefixObs is everything the survey knows about one prefix.
type prefixObs struct {
	prefix netblock.Prefix
	// asSet is set if any monitor saw the prefix originated by an AS_SET
	// (such prefixes are discarded by step (iii)).
	asSet bool
	// origins lists each origin AS seen with the monitors seeing it; a
	// prefix seen only via AS_SET has none.
	origins []originObs
}

type originObs struct {
	origin   ASN
	monitors monitorSet
}

// monitorSet is a set of monitor indexes: the first 64 inline, the rest
// in overflow words.
type monitorSet struct {
	lo uint64
	hi []uint64
}

func (m *monitorSet) add(i int) {
	if i < 64 {
		m.lo |= 1 << uint(i)
		return
	}
	w := i/64 - 1
	for len(m.hi) <= w {
		m.hi = append(m.hi, 0)
	}
	m.hi[w] |= 1 << uint(i%64)
}

// addWords adds the monitors of a non-empty bitset whose word w holds
// monitors 64w to 64w+63, growing the overflow only to its last
// non-zero word.
func (m *monitorSet) addWords(words []uint64) {
	m.lo |= words[0]
	last := len(words) - 1
	for last > 0 && words[last] == 0 {
		last--
	}
	for len(m.hi) < last {
		m.hi = append(m.hi, 0)
	}
	for w := 1; w <= last; w++ {
		m.hi[w-1] |= words[w]
	}
}

func (m *monitorSet) len() int {
	n := bits.OnesCount64(m.lo)
	for _, w := range m.hi {
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
// ObserveSetAt. Each record's first origin comes from one block
// allocated here, so only a prefix with several origins allocates
// later. Prefixes in ascending order leave Pairs an already-sorted
// list.
func NewPrefixSurvey(prefixes []netblock.Prefix) *OriginSurvey {
	s := NewOriginSurvey()
	s.prefixes = make([]prefixObs, len(prefixes))
	firsts := make([]originObs, len(prefixes))
	for i, p := range prefixes {
		s.prefixes[i] = prefixObs{prefix: p, origins: firsts[i : i : i+1]}
	}
	return s
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
	s.prefixes[s.record(p)].observe(m, origin, asSet)
}

// ObserveAt records that monitor m holds one sanitized route for the
// prefix of record i (see NewPrefixSurvey): one whose path ends in an
// AS_SET if asSet, else one originated by origin. It is Observe with
// the record and the path's outcome already known.
func (s *OriginSurvey) ObserveAt(m, i int, origin ASN, asSet bool) {
	s.prefixes[i].observe(m, origin, asSet)
}

// ObserveSetAt records ObserveAt(m, i, origin, asSet) for every monitor
// m in monitors, a bitset whose word w holds monitors 64w to 64w+63, in
// one step: a survey that knows each record's sightings as a bitset
// sets them without a call per monitor. The words are not retained.
func (s *OriginSurvey) ObserveSetAt(i int, origin ASN, asSet bool, monitors []uint64) {
	if !slices.ContainsFunc(monitors, func(w uint64) bool { return w != 0 }) {
		return
	}
	obs := &s.prefixes[i]
	if asSet {
		obs.asSet = true
		return
	}
	obs.originObs(origin).addWords(monitors)
}

func (obs *prefixObs) observe(m int, origin ASN, asSet bool) {
	if asSet {
		obs.asSet = true
		return
	}
	obs.originObs(origin).add(m)
}

// originObs returns the monitor set of the prefix's pair with origin,
// adding the pair if it is new.
func (obs *prefixObs) originObs(origin ASN) *monitorSet {
	for i := range obs.origins {
		if obs.origins[i].origin == origin {
			return &obs.origins[i].monitors
		}
	}
	obs.origins = append(obs.origins, originObs{origin: origin})
	return &obs.origins[len(obs.origins)-1].monitors
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
	for _, obs := range s.prefixes {
		moas := len(obs.origins) > 1
		for _, o := range obs.origins {
			out = append(out, PrefixOrigin{
				Prefix:   obs.prefix,
				Origin:   o.origin,
				Monitors: o.monitors.len(),
				MOAS:     moas,
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
	for _, obs := range s.prefixes {
		if obs.asSet {
			continue
		}
		for _, o := range obs.origins {
			if total > 0 && float64(o.monitors.len())/float64(total) >= minVisibility {
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
	for _, obs := range s.prefixes {
		if obs.asSet || len(obs.origins) != 1 {
			continue
		}
		o := obs.origins[0]
		if total > 0 && float64(o.monitors.len())/float64(total) >= minVisibility {
			out[obs.prefix] = o.origin
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
	for _, obs := range s.prefixes {
		if len(obs.origins) == 0 {
			continue
		}
		origins := make([]ASN, 0, len(obs.origins))
		for _, o := range obs.origins {
			origins = append(origins, o.origin)
		}
		slices.Sort(origins)
		out[obs.prefix] = origins
	}
	return out
}
