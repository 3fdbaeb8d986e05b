package simulation

import (
	"fmt"
	"math"
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
	// table is SurveyAt's per-world state; see routeTable.
	table routeTable
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
	rs.buildTable()
	return rs
}

// routeTable is everything SurveyAt needs that does not depend on the
// day: the monitors, and the steady announcements (rs.anns, about 7,700
// of the roughly 7,950 a DefaultConfig day carries) in prefix order
// with their sanitize verdicts. NewRoutingSim builds it; anything that
// edits the announcements or the peers afterwards must rebuild it.
type routeTable struct {
	// monitorIDs, peerAS: global monitor index → survey ID, peer AS.
	monitorIDs []string
	peerAS     []ASN
	// words is the number of uint64 words in a monitor bitset, whose
	// word w holds monitors 64w to 64w+63.
	words int
	// reserved is the bitset of monitors whose peer AS is reserved.
	reserved []uint64
	// peersWithAS maps a peer AS to the bitset of monitors with it.
	peersWithAS map[ASN][]uint64
	// order lists rs.anns indexes stably sorted by prefix.
	order []int32
	// verdicts[i] is rs.anns[i]'s sanitize verdict.
	verdicts []routeVerdict
}

// routeVerdict is bgp.Sanitize's outcome for the paths of one
// announcement. A monitor's path for announcement a is peer → transit →
// origin, plus a's AS_SET, so every rule but the loop rule depends on
// the announcement alone, and the loop rule on the peer AS alone.
type routeVerdict uint8

const (
	// routeDropped: a special-purpose prefix, or a reserved transit,
	// origin or AS_SET member, fails every monitor's path.
	routeDropped routeVerdict = iota
	// routeClean: every path from a non-reserved peer passes.
	routeClean
	// routeLoops: as routeClean, except the paths from the peers whose
	// AS is the origin, which loop.
	routeLoops
)

// buildTable (re)computes rs.table from the collectors and the steady
// announcements.
func (rs *RoutingSim) buildTable() {
	n := rs.NumMonitors()
	t := routeTable{words: (n + 63) / 64, peersWithAS: make(map[ASN][]uint64)}
	t.reserved = make([]uint64, t.words)
	for _, spec := range rs.collectors {
		for _, peer := range spec.peers {
			k := len(t.peerAS)
			t.monitorIDs = append(t.monitorIDs, fmt.Sprintf("%s:%s", spec.name, peer.IP))
			t.peerAS = append(t.peerAS, peer.AS)
			if bgp.IsReservedASN(peer.AS) {
				t.reserved[k/64] |= 1 << uint(k%64)
			}
			set := t.peersWithAS[peer.AS]
			if set == nil {
				set = make([]uint64, t.words)
				t.peersWithAS[peer.AS] = set
			}
			set[k/64] |= 1 << uint(k%64)
		}
	}
	t.order = make([]int32, len(rs.anns))
	for i := range t.order {
		t.order[i] = int32(i)
	}
	// The registry's allocations come in long ascending runs, which
	// the stable sort's insertion runs and merges take quickly.
	slices.SortStableFunc(t.order, func(a, b int32) int { return rs.anns[a].prefix.Compare(rs.anns[b].prefix) })
	t.verdicts = make([]routeVerdict, len(rs.anns))
	for i := range rs.anns {
		t.verdicts[i] = t.verdict(&rs.anns[i], rs.transitOf(rs.anns[i].origin))
	}
	rs.table = t
}

// verdict decides bgp.Sanitize's rules for the paths of announcement
// a, learned through transit.
func (t *routeTable) verdict(a *announcement, transit ASN) routeVerdict {
	if netblock.IsSpecialPurpose(a.prefix) || bgp.IsReservedASN(transit) ||
		bgp.IsReservedASN(a.origin) || slices.ContainsFunc(a.asSet, bgp.IsReservedASN) {
		return routeDropped
	}
	// ASPath.HasLoop skips the AS_SET and back-to-back repeats, so
	// peer → transit → origin loops exactly when the peer is the origin
	// and the transit is not.
	if transit != a.origin && t.peersWithAS[a.origin] != nil {
		return routeLoops
	}
	return routeClean
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

// daySeed seeds the deterministic per-day random source used for the
// day's shared events (hijacks and their observer assignment).
func (rs *RoutingSim) daySeed(day int) int64 { return rs.w.Cfg.Seed*1_000_003 + int64(day) }

// visSeed seeds the per-(day, collector) source used for per-monitor
// visibility sampling, so that SurveyAt and CollectorAt see identical
// views.
func (rs *RoutingSim) visSeed(day, collector int) int64 {
	return rs.w.Cfg.Seed*7_368_787 + int64(day)*131 + int64(collector)
}

// visibleProb is the chance that a monitor holds a given active
// announcement on a day.
const visibleProb = 0.97

// visMax and visRedraw state the visibility draw rng.Float64() <=
// visibleProb in integers. Float64 is float64(x)/2⁶³ for x =
// rng.Int63(), drawn again when that rounds to 1, so it redraws exactly
// when x >= visRedraw, and the draw is visible exactly when x <= visMax.
// Both bounds come from a search over that conversion, so they match it
// bit for bit. SurveyInto draws this way, with one integer compare;
// selectRoutes keeps Float64, so TestCollectorAtMatchesSurveyAt checks
// one form against the other.
var visMax, visRedraw = visibilityBounds(visibleProb)

// visibilityBounds returns the largest x with float64(x)/2⁶³ <= p and
// the smallest x with float64(x)/2⁶³ == 1, over the non-negative int64s.
func visibilityBounds(p float64) (maxVisible, redraw int64) {
	frac := func(x int64) float64 { return float64(x) / (1 << 63) }
	return firstInt64(func(x int64) bool { return frac(x) > p }) - 1,
		firstInt64(func(x int64) bool { return frac(x) >= 1 })
}

// firstInt64 returns the smallest x in [0, math.MaxInt64] with f(x), or
// math.MaxInt64 if there is none, for an f that is false and then true
// over that range.
func firstInt64(f func(int64) bool) int64 {
	lo, hi := int64(0), int64(math.MaxInt64)
	for lo < hi {
		mid := lo + (hi-lo)/2
		if f(mid) {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// visible draws whether a monitor holds an active announcement, as
// rng.Float64() <= visibleProb does, making the same Int63 draws.
func visible(rng *rand.Rand) bool {
	x := rng.Int63()
	for x >= visRedraw {
		x = rng.Int63()
	}
	return x <= visMax
}

// dayView is one day's routing input, shared by every monitor: the
// active announcements followed by the day's hijacks, the dense index of
// each one's prefix among the day's distinct prefixes (numbered in
// ascending prefix order), and which global monitor indexes observe
// each hijack. CollectorAt builds it; SurveyAt indexes the same
// announcements the same way without copying the steady ones.
type dayView struct {
	anns     []announcement // active announcements, then hijacks
	nActive  int            // anns[:nActive] are the active announcements
	prefixOf []int32        // anns[i].prefix is prefixes[prefixOf[i]]
	prefixes []netblock.Prefix
	// hijackMonitors[h] holds the monitors observing anns[nActive+h].
	hijackMonitors []observers
}

// observers holds the one or two global monitor indexes observing a
// hijack; the second is -1 for a hijack only one monitor sees.
type observers [2]int32

// dayView computes the day's shared state: active announcements,
// hijacks, which monitors observe each hijack, and the prefix index.
func (rs *RoutingSim) dayView(day int) *dayView {
	anns := rs.appendVarying(slices.Clip(rs.anns), day)
	nActive := len(anns)
	anns, hijackMonitors := rs.appendHijacks(rand.New(rand.NewSource(rs.daySeed(day))), day, anns, nil)
	dv := &dayView{anns: anns, nActive: nActive, hijackMonitors: hijackMonitors}
	// Number the distinct prefixes in ascending order: sort the
	// announcements by prefix, then number each run of equal prefixes.
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
// dv.prefixes[i], or -1. Each active announcement is present with
// probability visibleProb (one rng draw each, in order), hijacks only
// at their assigned monitors, and — as in a real per-peer RIB — at most
// one best route per prefix, chosen by prefers.
func (dv *dayView) selectRoutes(rng *rand.Rand, monIdx int, best []int32) {
	for i := range best {
		best[i] = -1
	}
	prefer := func(ai int) {
		slot := &best[dv.prefixOf[ai]]
		if *slot < 0 || prefers(monIdx, &dv.anns[*slot], &dv.anns[ai]) {
			*slot = int32(ai)
		}
	}
	for i := 0; i < dv.nActive; i++ {
		if rng.Float64() > visibleProb {
			continue // this monitor misses the route today
		}
		prefer(i)
	}
	for h, mons := range dv.hijackMonitors {
		for _, m := range mons {
			if int(m) == monIdx {
				prefer(dv.nActive + h)
			}
		}
	}
}

// prefers reports whether monitor monIdx, holding route old for a
// prefix, replaces it with route cand, which it receives later.
// Same-prefix conflicts resolve deterministically: even monitors prefer
// the lower origin AS, odd monitors the higher one, so for MOAS prefixes
// the survey still observes both origins across the platform; an
// AS_SET-terminated route has no usable origin, so whichever route came
// first is kept.
func prefers(monIdx int, old, cand *announcement) bool {
	if old.asSet != nil || cand.asSet != nil {
		return false
	}
	return (monIdx%2 == 0) == (cand.origin < old.origin)
}

// appendVarying appends to out the announcements that exist on the day
// besides the steady rs.anns, before per-monitor visibility sampling:
// announced leases with their MOAS second origins, scrubbing episodes,
// and the AS_SET aggregates. rs.anns followed by these are the day's
// active announcements.
func (rs *RoutingSim) appendVarying(out []announcement, day int) []announcement {
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
	return append(out, rs.asSetAggs...)
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

// appendHijacks draws the day's hijacks from rng, a source seeded with
// daySeed(day), appending them to anns and, for each, the global
// indexes of the monitors observing it to mons.
func (rs *RoutingSim) appendHijacks(rng *rand.Rand, day int, anns []announcement, mons []observers) ([]announcement, []observers) {
	start := len(anns)
	anns = rs.hijacks(rng, day, anns)
	total := rs.NumMonitors()
	for range anns[start:] {
		m1 := rng.Intn(total)
		obs := observers{int32(m1), -1}
		if rng.Float64() < 0.5 {
			obs[1] = int32((m1 + 1) % total)
		}
		mons = append(mons, obs)
	}
	return anns, mons
}

// hijacks draws the day's short-lived more-specific hijacks, appending
// them to out; each is visible at only one or two monitors (locally
// spread, as §4 puts it). The expected count is the baseline
// HijackRate, or the rate of a hijack wave covering the day.
func (rs *RoutingSim) hijacks(rng *rand.Rand, day int, out []announcement) []announcement {
	n := poisson(rng, rs.w.Cfg.hijackRateOn(day))
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

// surveyed, when set, is called with the day of every survey drawn, so
// that tests can count the surveys a build draws. It is nil outside
// tests.
var surveyed func(day int)

// SurveyAt builds the day's origin survey across all monitors, applying
// the same sanitization the offline pipeline uses. Legitimate routes are
// seen by each monitor with probability visibleProb; hijacks at only
// 1-2 monitors. The survey equals the one CollectorAt's RIBs yield
// through Collector.AddViewsTo, but neither a RIB nor an AS path is
// built. It is SurveyInto on a fresh buffer.
//
// SurveyAt is a pure derivation: every random draw comes from RNGs
// seeded deterministically per (day, collector), and the receiver is not
// mutated. Concurrent calls for different days are therefore safe and
// order-independent — the per-date inference fan-out in core.Figure6
// relies on this contract.
func (rs *RoutingSim) SurveyAt(day int) *bgp.OriginSurvey {
	return rs.SurveyInto(new(SurveyBuffer), day)
}

// SurveyBuffer is one origin survey with the scratch space that fills
// it: the day's announcements, their order and prefixes, the monitor
// bitsets and the random source. The zero value is ready to use. A
// buffer refilled day after day by SurveyInto allocates nothing once it
// has grown to the largest day; it serves one goroutine at a time.
type SurveyBuffer struct {
	survey         *bgp.OriginSurvey
	rng            *rand.Rand
	day            surveyDay
	hijackMonitors []observers
	vorder, order  []int32
	prefixes       []netblock.Prefix
	set            []uint64
}

// seeded returns the buffer's random source, seeded with seed as
// rand.New(rand.NewSource(seed)) would be.
func (b *SurveyBuffer) seeded(seed int64) *rand.Rand {
	if b.rng == nil {
		b.rng = rand.New(rand.NewSource(seed))
	} else {
		b.rng.Seed(seed)
	}
	return b.rng
}

// resize returns s with length n, reusing its storage when it can.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// SurveyInto refills b's survey with the day's survey, as SurveyAt
// describes, and returns it. The survey stays valid until b's next
// SurveyInto. Like SurveyAt it does not mutate the receiver, so
// concurrent calls with distinct buffers are safe.
//
// The steady announcements' prefix order and sanitize verdicts come
// from rs.table; the day sorts only its few hundred varying
// announcements and hijacks and merges them in, numbering the survey's
// records. Each monitor's visibility draws set its bit in a
// per-announcement bitset. A record with one announcement takes that
// bitset, less the reserved peers and the peers its path loops at, as
// its monitor set in one step; only the rare records with several
// announcements (MOAS leases, hijacked or scrubbed prefixes that
// coincide with another route) pick each monitor's route as
// selectRoutes does.
func (rs *RoutingSim) SurveyInto(b *SurveyBuffer, day int) *bgp.OriginSurvey {
	if surveyed != nil {
		surveyed(day)
	}
	t := &rs.table
	d := &b.day
	d.steady, d.steadyVerdicts = rs.anns, t.verdicts
	// Room for a typical day's varying announcements and hijacks, so a
	// fresh buffer grows them once.
	d.vary = slices.Grow(d.vary[:0], len(rs.w.Leases)/2+len(rs.scrubEvents)+len(rs.asSetAggs)+16)
	d.vary = rs.appendVarying(d.vary, day)
	nSteady := len(d.steady)
	nActive := nSteady + len(d.vary)
	d.vary, b.hijackMonitors = rs.appendHijacks(b.seeded(rs.daySeed(day)), day, d.vary, slices.Grow(b.hijackMonitors[:0], 16))
	d.varyVerdicts = resize(d.varyVerdicts, len(d.vary))
	for i := range d.vary {
		d.varyVerdicts[i] = t.verdict(&d.vary[i], rs.transitOf(d.vary[i].origin))
	}

	// The day's prefix order: the varying announcements stably sorted,
	// merged into the steady order. Every steady index is below every
	// varying one, so taking the steady side on ties keeps the merge
	// equal to a stable sort of all the day's announcements.
	vorder := resize(b.vorder, len(d.vary))
	for i := range vorder {
		vorder[i] = int32(nSteady + i)
	}
	slices.SortStableFunc(vorder, func(a, b int32) int { return d.ann(a).prefix.Compare(d.ann(b).prefix) })
	n := nSteady + len(d.vary)
	order, prefixes := slices.Grow(b.order[:0], n), slices.Grow(b.prefixes[:0], n)
	for si, vi := 0, 0; si < nSteady || vi < len(vorder); {
		var ai int32
		if vi == len(vorder) || si < nSteady && d.steady[t.order[si]].prefix.Compare(d.ann(vorder[vi]).prefix) <= 0 {
			ai = t.order[si]
			si++
		} else {
			ai = vorder[vi]
			vi++
		}
		order = append(order, ai)
		if p := d.ann(ai).prefix; len(prefixes) == 0 || p != prefixes[len(prefixes)-1] {
			prefixes = append(prefixes, p)
		}
	}
	b.vorder, b.order, b.prefixes = vorder, order, prefixes

	d.n = n
	d.seen = resize(d.seen, t.words*n)
	clear(d.seen)
	k := 0 // global monitor index
	for ci, spec := range rs.collectors {
		rng := b.seeded(rs.visSeed(day, ci))
		for range spec.peers {
			col, bit := d.seen[k/64*n:][:nActive], uint64(1)<<uint(k%64)
			for i := range col {
				if visible(rng) { // else this monitor misses the route today
					col[i] |= bit
				}
			}
			k++
		}
	}
	for h, mons := range b.hijackMonitors {
		for _, m := range mons {
			if m >= 0 {
				d.seen[int(m)/64*n+nActive+h] |= 1 << uint(m%64)
			}
		}
	}

	if b.survey == nil {
		b.survey = bgp.NewOriginSurvey()
	}
	survey := b.survey
	survey.Reset(prefixes)
	for _, id := range t.monitorIDs {
		survey.AddMonitor(id) // monitor k gets index k: the IDs are distinct
	}
	b.set = resize(b.set, t.words)
	set := b.set
	for rec, lo := 0, 0; lo < n; rec++ {
		hi := lo + 1
		for hi < n && d.ann(order[hi]).prefix == prefixes[rec] {
			hi++
		}
		if hi > lo+1 {
			t.observeConflict(survey, rec, order[lo:hi], d)
			lo = hi
			continue
		}
		ai := order[lo]
		lo = hi
		a, v := d.ann(ai), d.verdict(ai)
		if v == routeDropped {
			continue
		}
		for w := range set {
			set[w] = d.seen[w*n+int(ai)] &^ t.reserved[w]
		}
		if v == routeLoops {
			for w, loops := range t.peersWithAS[a.origin] {
				set[w] &^= loops
			}
		}
		survey.ObserveSetAt(rec, a.origin, a.asSet != nil, set)
	}
	return survey
}

// surveyDay is one day's announcements as SurveyAt indexes them, the
// way dayView does: the steady ones, then the day's varying ones (see
// appendVarying), then its hijacks.
type surveyDay struct {
	steady, vary                 []announcement
	steadyVerdicts, varyVerdicts []routeVerdict
	// seen[w*n+i] is word w of the bitset of monitors holding
	// announcement i, of n in all.
	seen []uint64
	n    int
}

func (d *surveyDay) ann(i int32) *announcement {
	if int(i) < len(d.steady) {
		return &d.steady[i]
	}
	return &d.vary[int(i)-len(d.steady)]
}

func (d *surveyDay) verdict(i int32) routeVerdict {
	if int(i) < len(d.steady) {
		return d.steadyVerdicts[i]
	}
	return d.varyVerdicts[int(i)-len(d.steady)]
}

// observeConflict records, for each monitor, the route it holds for
// survey record rec, whose announcements run lists in ascending order:
// of those the monitor sees, the one selectRoutes would keep.
func (t *routeTable) observeConflict(survey *bgp.OriginSurvey, rec int, run []int32, d *surveyDay) {
	for k, peerAS := range t.peerAS {
		w, bit := k/64, uint64(1)<<uint(k%64)
		// A reserved peer AS fails every one of the monitor's paths.
		if t.reserved[w]&bit != 0 {
			continue
		}
		best := int32(-1)
		for _, ai := range run {
			if d.seen[w*d.n+int(ai)]&bit != 0 && (best < 0 || prefers(k, d.ann(best), d.ann(ai))) {
				best = ai
			}
		}
		if best < 0 {
			continue
		}
		a, v := d.ann(best), d.verdict(best)
		if v == routeDropped || v == routeLoops && peerAS == a.origin {
			continue
		}
		survey.ObserveAt(k, rec, a.origin, a.asSet != nil)
	}
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
	rng := rand.New(rand.NewSource(rs.visSeed(day, idx)))
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
