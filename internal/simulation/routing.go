package simulation

import (
	"fmt"
	"math/rand"
	"slices"

	"ipv4market/internal/bgp"
	"ipv4market/internal/netblock"
)

// RoutingSim synthesizes the daily view of the global routing system as
// seen from a set of collectors: owner announcements of allocations,
// leased more-specifics with on-off patterns, plus the noise the paper's
// extended algorithm must suppress — low-visibility more-specific
// hijacks, MOAS, and AS_SET aggregates. Each day's view is generated
// deterministically and independently from the world seed.
type RoutingSim struct {
	w *World

	collectors []collectorSpec
	// announced allocations: every (allocation, origin AS) pair visible
	// in steady state.
	anns []announcement
	// moasLeases adds a second origin to a few leased children.
	moasLeases map[*Lease]ASN
	// asSetAggs are prefixes announced with AS_SET termination.
	asSetAggs []announcement
	// scrubEvents are DDoS-scrubbing episodes: the scrubber announces a
	// victim's more-specific at full visibility for a few days. §4 lists
	// these as an unavoidable false-positive source for the inference.
	scrubEvents []scrubEvent
	// transit maps each origin AS to its upstream.
	transit map[ASN]ASN
}

type scrubEvent struct {
	prefix   netblock.Prefix
	scrubber ASN
	fromDay  int
	toDay    int
}

type collectorSpec struct {
	name  string
	id    netblock.Addr
	peers []bgp.PeerEntry
}

type announcement struct {
	prefix netblock.Prefix
	origin ASN
	asSet  []ASN // non-nil: terminate the path with this AS_SET
}

// collectorNames gives the simulation's collectors familiar labels.
var collectorNames = []string{"rrc00", "route-views2", "isolario"}

// NewRoutingSim prepares the daily route generator for the world.
func NewRoutingSim(w *World) *RoutingSim {
	rs := &RoutingSim{
		w:          w,
		moasLeases: make(map[*Lease]ASN),
		transit:    make(map[ASN]ASN),
	}
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x5eed))

	// Collectors and monitor peers. Peer ASNs live in the public range.
	nextPeerAS := ASN(21000)
	nextPeerIP := netblock.MustParseAddr("198.51.100.1") // doc space: fine for peer IPs
	for c := 0; c < w.Cfg.Collectors; c++ {
		name := fmt.Sprintf("collector-%d", c)
		if c < len(collectorNames) {
			name = collectorNames[c]
		}
		spec := collectorSpec{name: name, id: netblock.Addr(0xC0000200 + uint32(c))}
		for m := 0; m < w.Cfg.MonitorsPerCollector; m++ {
			spec.peers = append(spec.peers, bgp.PeerEntry{
				BGPID: nextPeerIP, IP: nextPeerIP, AS: nextPeerAS,
			})
			nextPeerAS++
			nextPeerIP++
		}
		rs.collectors = append(rs.collectors, spec)
	}

	// Transit providers: a small pool of tier-1-ish ASNs.
	tier1 := []ASN{1299, 3356, 174, 3320, 2914, 6453}
	transitOf := func(a ASN) ASN {
		t := tier1[int(uint32(a))%len(tier1)]
		if t == a {
			t = tier1[(int(uint32(a))+1)%len(tier1)]
		}
		return t
	}

	// Owner announcements: nearly all allocations are announced by the
	// holder's primary AS; a few stay dark (unrouted address space).
	for _, a := range w.Registry.Allocations() {
		org := w.ByID[a.Org]
		if org == nil {
			continue
		}
		dark := rng.Float64() < 0.08 && org.Kind != KindISP && org.Kind != KindHoster
		if dark {
			continue
		}
		origin := org.PrimaryAS()
		rs.anns = append(rs.anns, announcement{prefix: a.Prefix, origin: origin})
		rs.transit[origin] = transitOf(origin)
	}
	for _, l := range w.Leases {
		rs.transit[l.Customer.PrimaryAS()] = transitOf(l.Customer.PrimaryAS())
	}

	// MOAS noise: a handful of routed leases gain a second origin
	// (multihoming look-alikes the extended algorithm discards).
	routed := w.RoutedLeases()
	for i := 0; i < len(routed)/25; i++ {
		l := routed[rng.Intn(len(routed))]
		other := w.Orgs[rng.Intn(len(w.Orgs))]
		if other != l.Customer {
			rs.moasLeases[l] = other.PrimaryAS()
		}
	}

	// Scrubbing episodes: roughly one active per ~150 days of window.
	scrubbers := []ASN{32787, 19905, 200020} // Prolexic/Neustar-style ASNs
	nEvents := w.Cfg.RoutingDays/150 + 1
	for i := 0; i < nEvents && len(rs.anns) > 0; i++ {
		victim := rs.anns[rng.Intn(len(rs.anns))]
		if victim.prefix.Bits() >= 24 {
			continue
		}
		off := netblock.Addr(rng.Int63n(1 << uint(24-victim.prefix.Bits())))
		child := netblock.MustPrefix(victim.prefix.Addr()+off<<8, 24)
		from := rng.Intn(w.Cfg.RoutingDays)
		sc := scrubbers[rng.Intn(len(scrubbers))]
		rs.scrubEvents = append(rs.scrubEvents, scrubEvent{
			prefix: child, scrubber: sc, fromDay: from, toDay: from + 3 + rng.Intn(8),
		})
		rs.transit[sc] = transitOf(sc)
	}

	// AS_SET aggregates: a few prefixes whose path ends in a set.
	for i := 0; i < 3 && i < len(rs.anns); i++ {
		base := rs.anns[rng.Intn(len(rs.anns))]
		children, err := base.prefix.Split(minInt(base.prefix.Bits()+2, 30))
		if err != nil || len(children) == 0 {
			continue
		}
		rs.asSetAggs = append(rs.asSetAggs, announcement{
			prefix: children[0],
			origin: base.origin,
			asSet:  []ASN{base.origin, ASN(10000 + rng.Intn(500))},
		})
	}
	return rs
}

// NumMonitors returns the total monitor count across collectors.
func (rs *RoutingSim) NumMonitors() int {
	n := 0
	for _, c := range rs.collectors {
		n += len(c.peers)
	}
	return n
}

// RoutedLeases returns the leases that announce their child prefix.
func (w *World) RoutedLeases() []*Lease {
	var out []*Lease
	for _, l := range w.Leases {
		if l.Routed {
			out = append(out, l)
		}
	}
	return out
}

// dayRNG returns the deterministic per-day random source used for the
// day's shared events (hijacks and their observer assignment).
func (rs *RoutingSim) dayRNG(day int) *rand.Rand {
	return rand.New(rand.NewSource(rs.w.Cfg.Seed*1_000_003 + int64(day)))
}

// visRNG returns the per-(day, collector) source used for per-monitor
// visibility sampling, so that SurveyAt and CollectorAt see identical
// views.
func (rs *RoutingSim) visRNG(day, collector int) *rand.Rand {
	return rand.New(rand.NewSource(rs.w.Cfg.Seed*7_368_787 + int64(day)*131 + int64(collector)))
}

// dayView is one day's routing input, shared by every monitor: the
// active announcements followed by the day's hijacks, the dense index of
// each one's prefix among the day's distinct prefixes (numbered in
// ascending prefix order), and which global monitor indexes observe
// each hijack.
type dayView struct {
	anns     []announcement // active announcements, then hijacks
	nActive  int            // anns[:nActive] are the active announcements
	prefixOf []int32        // anns[i].prefix is prefixes[prefixOf[i]]
	prefixes []netblock.Prefix
	// hijackMonitors[h] lists the monitors observing anns[nActive+h].
	hijackMonitors [][]int
}

// dayView computes the day's shared state: active announcements,
// hijacks, which monitors observe each hijack, and the prefix index.
func (rs *RoutingSim) dayView(day int) *dayView {
	rng := rs.dayRNG(day)
	anns := rs.activeAnnouncements(day)
	hijacks := rs.hijacks(rng, day)
	total := rs.NumMonitors()
	dv := &dayView{
		anns:           append(anns, hijacks...),
		nActive:        len(anns),
		hijackMonitors: make([][]int, len(hijacks)),
	}
	for i := range hijacks {
		m1 := rng.Intn(total)
		dv.hijackMonitors[i] = []int{m1}
		if rng.Float64() < 0.5 {
			dv.hijackMonitors[i] = append(dv.hijackMonitors[i], (m1+1)%total)
		}
	}
	// Number the distinct prefixes in ascending order: sort the
	// announcements by prefix, then number each run of equal prefixes.
	// They arrive in long ascending runs (the registry's allocations
	// first), which the stable sort's insertion runs and merges take in
	// well under half of pdqsort's time.
	order := make([]int32, len(dv.anns))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return dv.anns[a].prefix.Compare(dv.anns[b].prefix) })
	dv.prefixOf = make([]int32, len(dv.anns))
	dv.prefixes = make([]netblock.Prefix, 0, len(dv.anns))
	for i, ai := range order {
		if p := dv.anns[ai].prefix; i == 0 || p != dv.prefixes[len(dv.prefixes)-1] {
			dv.prefixes = append(dv.prefixes, p)
		}
		dv.prefixOf[ai] = int32(len(dv.prefixes) - 1)
	}
	return dv
}

// selectRoutes computes one monitor's table for the day as indexes into
// dv.anns: best[i] is the announcement the monitor holds for
// dv.prefixes[i], or -1. Each active announcement is present with ~97%
// probability (one rng draw each, in order), hijacks only at their
// assigned monitors, and — as in a real per-peer RIB — at most one best
// route per prefix. Same-prefix conflicts resolve deterministically:
// even monitors prefer the lower origin AS, odd monitors the higher one,
// so for MOAS prefixes the survey still observes both origins across
// the platform; an AS_SET-terminated route has no usable origin, so
// whichever route came first is kept.
func (dv *dayView) selectRoutes(rng *rand.Rand, monIdx int, best []int32) {
	for i := range best {
		best[i] = -1
	}
	prefer := func(ai int) {
		slot := &best[dv.prefixOf[ai]]
		if *slot < 0 {
			*slot = int32(ai)
			return
		}
		old, cand := dv.anns[*slot], dv.anns[ai]
		if old.asSet != nil || cand.asSet != nil {
			return
		}
		if (monIdx%2 == 0) == (cand.origin < old.origin) {
			*slot = int32(ai)
		}
	}
	for i := 0; i < dv.nActive; i++ {
		if rng.Float64() > 0.97 {
			continue // this monitor misses the route today
		}
		prefer(i)
	}
	for h, mons := range dv.hijackMonitors {
		for _, m := range mons {
			if m == monIdx {
				prefer(dv.nActive + h)
			}
		}
	}
}

// activeAnnouncements returns all (prefix, origin, asSet) announcements
// that exist on the day, before per-monitor visibility sampling.
func (rs *RoutingSim) activeAnnouncements(day int) []announcement {
	out := make([]announcement, 0, len(rs.anns)+len(rs.w.Leases)/2+8)
	out = append(out, rs.anns...)
	for _, l := range rs.w.Leases {
		if !l.AnnouncedOn(day) {
			continue
		}
		out = append(out, announcement{prefix: l.Child, origin: l.Customer.PrimaryAS()})
		if second, ok := rs.moasLeases[l]; ok {
			out = append(out, announcement{prefix: l.Child, origin: second})
		}
	}
	for _, ev := range rs.scrubEvents {
		if day >= ev.fromDay && day < ev.toDay {
			out = append(out, announcement{prefix: ev.prefix, origin: ev.scrubber})
		}
	}
	out = append(out, rs.asSetAggs...)
	return out
}

// ScrubbedPrefixesOn returns the prefixes announced by scrubbing services
// on the day — ground truth for the false positives §4's limitations
// paragraph concedes the algorithm cannot avoid.
func (rs *RoutingSim) ScrubbedPrefixesOn(day int) []netblock.Prefix {
	var out []netblock.Prefix
	for _, ev := range rs.scrubEvents {
		if day >= ev.fromDay && day < ev.toDay {
			out = append(out, ev.prefix)
		}
	}
	return out
}

// hijacks draws the day's short-lived more-specific hijacks; each is
// visible at only one or two monitors (locally spread, as §4 puts it).
// The expected count is the baseline HijackRate, or the rate of a
// hijack wave covering the day.
func (rs *RoutingSim) hijacks(rng *rand.Rand, day int) []announcement {
	n := poisson(rng, rs.w.Cfg.hijackRateOn(day))
	var out []announcement
	for i := 0; i < n && len(rs.anns) > 0; i++ {
		victim := rs.anns[rng.Intn(len(rs.anns))]
		if victim.prefix.Bits() >= 24 {
			continue
		}
		// A random /24 inside the victim block.
		off := netblock.Addr(rng.Int63n(1 << uint(24-victim.prefix.Bits())))
		child := netblock.MustPrefix(victim.prefix.Addr()+off<<8, 24)
		attacker := rs.w.Orgs[rng.Intn(len(rs.w.Orgs))].PrimaryAS()
		if attacker == victim.origin {
			continue
		}
		out = append(out, announcement{prefix: child, origin: attacker})
	}
	return out
}

// SurveyAt builds the day's origin survey across all monitors, applying
// the same sanitization the offline pipeline uses. Legitimate routes are
// seen by each monitor with ~97% probability; hijacks at only 1-2
// monitors. The survey equals the one CollectorAt's RIBs yield through
// Collector.AddViewsTo, but neither a RIB nor an AS path is built: the
// survey has one record per distinct prefix of the day, and each
// monitor's selection, held in one reused index slice, is observed
// record by record with every bgp.Sanitize rule decided up front.
//
// SurveyAt is a pure derivation: every random draw comes from RNGs
// seeded deterministically per (day, collector), and the receiver is not
// mutated. Concurrent calls for different days are therefore safe and
// order-independent — the per-date inference fan-out in core.Figure6
// relies on this contract.
func (rs *RoutingSim) SurveyAt(day int) *bgp.OriginSurvey {
	dv := rs.dayView(day)
	// A monitor's path for announcement a is peer → transit → origin,
	// plus a's AS_SET, so bgp.Sanitize's rules split by what they read.
	// The special-purpose prefix and reserved transit, origin or AS_SET
	// rules depend on the announcement alone: clean records them once.
	clean := make([]bool, len(dv.anns))
	transit := make([]ASN, len(dv.anns))
	for i, a := range dv.anns {
		transit[i] = rs.transitOf(a.origin)
		clean[i] = !netblock.IsSpecialPurpose(a.prefix) &&
			!bgp.IsReservedASN(transit[i]) && !bgp.IsReservedASN(a.origin) &&
			!slices.ContainsFunc(a.asSet, bgp.IsReservedASN)
	}

	survey := bgp.NewPrefixSurvey(dv.prefixes)
	best := make([]int32, len(dv.prefixes))
	k := 0 // global monitor index
	for ci, spec := range rs.collectors {
		rng := rs.visRNG(day, ci)
		for _, peer := range spec.peers {
			m := survey.AddMonitor(fmt.Sprintf("%s:%s", spec.name, peer.IP))
			dv.selectRoutes(rng, k, best) // draws even for a monitor dropped below
			k++
			// A reserved peer AS fails every one of the monitor's paths.
			if bgp.IsReservedASN(peer.AS) {
				continue
			}
			for rec, ai := range best {
				if ai < 0 || !clean[ai] {
					continue
				}
				a := &dv.anns[ai]
				// ASPath.HasLoop skips the AS_SET and back-to-back
				// repeats, so peer → transit → origin loops exactly
				// when the peer is the origin and the transit is not.
				if peer.AS == a.origin && transit[ai] != a.origin {
					continue
				}
				survey.ObserveAt(m, rec, a.origin, a.asSet != nil)
			}
		}
	}
	return survey
}

// monitorRIB materializes one monitor's table for the day (see
// selectRoutes); best is scratch space of len(dv.prefixes).
func (rs *RoutingSim) monitorRIB(rng *rand.Rand, peerAS ASN, monIdx int, dv *dayView, best []int32) *bgp.RIB {
	dv.selectRoutes(rng, monIdx, best)
	rib := bgp.NewRIB()
	for _, ai := range best {
		if ai >= 0 {
			rib.Insert(rs.routeFor(dv.anns[ai], peerAS))
		}
	}
	return rib
}

// transitOf returns the upstream the origin's routes are learned through.
func (rs *RoutingSim) transitOf(origin ASN) ASN {
	if t := rs.transit[origin]; t != 0 {
		return t
	}
	return 1299
}

func (rs *RoutingSim) routeFor(a announcement, peerAS ASN) bgp.Route {
	path := bgp.NewPath(peerAS, rs.transitOf(a.origin), a.origin)
	if a.asSet != nil {
		path = path.AppendSet(a.asSet...)
	}
	return bgp.Route{
		Prefix:  a.prefix,
		Path:    path,
		Origin:  bgp.OriginIGP,
		NextHop: netblock.Addr(0xC6336401),
	}
}

// CollectorAt materializes collector idx's full state for the day — used
// to export MRT snapshots. Its RIBs, sanitized into a survey through
// Collector.AddViewsTo, yield exactly the survey SurveyAt computes.
func (rs *RoutingSim) CollectorAt(day, idx int) *bgp.Collector {
	dv := rs.dayView(day)
	spec := rs.collectors[idx]
	c := bgp.NewCollector(spec.name, spec.id)
	// Global monitor index of this collector's first peer.
	base := 0
	for i := 0; i < idx; i++ {
		base += len(rs.collectors[i].peers)
	}
	rng := rs.visRNG(day, idx)
	best := make([]int32, len(dv.prefixes))
	for p, peer := range spec.peers {
		i := c.AddPeer(peer)
		*c.PeerRIB(i) = *rs.monitorRIB(rng, peer.AS, base+p, dv, best)
	}
	return c
}

// NumCollectors returns the collector count.
func (rs *RoutingSim) NumCollectors() int { return len(rs.collectors) }

// TrueDelegationsOn returns the ground-truth set of leased child prefixes
// whose delegation is in principle observable in BGP on the day (lease
// active and routed, provider and customer in different organizations).
func (rs *RoutingSim) TrueDelegationsOn(day int) map[netblock.Prefix]ASN {
	out := make(map[netblock.Prefix]ASN)
	for _, l := range rs.w.Leases {
		if l.AnnouncedOn(day) {
			out[l.Child] = l.Customer.PrimaryAS()
		}
	}
	return out
}
