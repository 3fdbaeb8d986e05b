package simulation

import (
	"math/rand"

	"ipv4market/internal/netblock"
	"ipv4market/internal/rpki"
)

// SmallWorldConfig is the test world's config, for the external tests.
func SmallWorldConfig() Config { return testConfig() }

// The hooks below edit a RoutingSim after NewRoutingSim; each rebuilds
// the routing table SurveyAt reads, as any such edit must.

// SetPeerAS gives global monitor k's peer the AS a, so a test can make
// the monitor's paths loop (a is an announced origin) or start with a
// reserved ASN. No generated world does either: monitor peers number
// from 21000 and never repeat an origin.
func (rs *RoutingSim) SetPeerAS(k int, a ASN) {
	for ci := range rs.collectors {
		if peers := rs.collectors[ci].peers; k < len(peers) {
			peers[k].AS = a
			rs.buildTable()
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
	rs.buildTable()
	return agg.prefix
}

// Announce adds a steady announcement of p by origin.
func (rs *RoutingSim) Announce(p netblock.Prefix, origin ASN) {
	rs.anns = append(rs.anns, announcement{prefix: p, origin: origin})
	rs.buildTable()
}

// PerDayRPKIHistory is BuildRPKIHistory with one History.Observe, and
// so one key lookup, per (delegation, day): the oracle for the
// generator's one rpki.Recorder per lease. It makes the same draws in
// the same order.
func (w *World) PerDayRPKIHistory(adoptionProb, dropProb float64) *rpki.History {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x4b1d))
	h := rpki.NewHistory(w.Cfg.RoutingStart, w.Cfg.RoutingDays)
	for _, l := range w.Leases {
		if !l.Routed || rng.Float64() > adoptionProb {
			continue
		}
		d := leaseDelegation(l)
		p := solidROADropProb
		if rng.Float64() < FlakyROAFraction {
			p = dropProb
		}
		for day := maxInt(l.StartDay, 0); day < minInt(l.EndDay, w.Cfg.RoutingDays); day++ {
			drop := p
			if storm, ok := w.Cfg.stormOn(day); ok && storm.DropProb > drop {
				drop = storm.DropProb
			}
			if rng.Float64() < drop {
				continue
			}
			h.Observe(day, d)
		}
	}
	for si, storm := range w.Cfg.RPKIChurnStorms {
		if storm.StaleROAFraction <= 0 {
			continue
		}
		for li, l := range w.Leases {
			ended := l.EndDay < storm.Window.EndDay
			if l.Routed && !ended {
				continue
			}
			srng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x57a1e ^ int64(li)*1_000_003 ^ int64(si)*2_147_483_659))
			if srng.Float64() > adoptionProb || srng.Float64() >= storm.StaleROAFraction {
				continue
			}
			lo := maxInt(storm.Window.StartDay, 0)
			if l.Routed {
				lo = maxInt(lo, l.EndDay)
			}
			for day := lo; day < minInt(storm.Window.EndDay, w.Cfg.RoutingDays); day++ {
				if srng.Float64() < storm.DropProb {
					continue
				}
				h.Observe(day, leaseDelegation(l))
			}
		}
	}
	return h
}
