package simulation

import "ipv4market/internal/netblock"

// SmallWorldConfig is the test world's config, for the external tests.
func SmallWorldConfig() Config { return testConfig() }

// SetPeerAS gives global monitor k's peer the AS a, so a test can make
// the monitor's paths loop (a is an announced origin) or start with a
// reserved ASN. No generated world does either: monitor peers number
// from 21000 and never repeat an origin.
func (rs *RoutingSim) SetPeerAS(k int, a ASN) {
	for ci := range rs.collectors {
		if peers := rs.collectors[ci].peers; k < len(peers) {
			peers[k].AS = a
			return
		}
		k -= len(rs.collectors[ci].peers)
	}
	panic("simulation: SetPeerAS: no such monitor")
}

// AddToFirstASSet appends a to the first AS_SET aggregate's set and
// returns that aggregate's prefix.
func (rs *RoutingSim) AddToFirstASSet(a ASN) netblock.Prefix {
	agg := &rs.asSetAggs[0]
	agg.asSet = append(agg.asSet, a)
	return agg.prefix
}

// Announce adds a steady announcement of p by origin.
func (rs *RoutingSim) Announce(p netblock.Prefix, origin ASN) {
	rs.anns = append(rs.anns, announcement{prefix: p, origin: origin})
}
