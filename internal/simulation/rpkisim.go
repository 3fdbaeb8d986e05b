package simulation

import (
	"math/rand"

	"ipv4market/internal/rpki"
)

// RPKI simulation: the appendix infers delegations from ROA pairs and
// calibrates consistency rules on their day-to-day visibility. Observed
// behavior in the paper: the 10-day/N=0 rule fails ~5% of the time; fail
// rates never reach 30% even at M=100; and ~90% of delegations seen 90
// days apart are visible for all but at most 3 days in between.
//
// A single per-day drop probability cannot produce that saturation (a 5%
// fail rate at M=10 would compound to >40% at M=100), so drops follow a
// mixture: most delegations are rock-solid, while a flaky minority
// (FlakyROAFraction) drops days independently with DefaultROADropProb.
// The M→∞ fail rate then saturates at the flaky fraction, below 30%.

// DefaultROADropProb is the flaky population's per-day probability of
// being absent from the validated ROA set (publication glitches, expired
// certificates, validator hiccups).
const DefaultROADropProb = 0.0216

// FlakyROAFraction is the share of delegations whose ROAs flap; solid
// delegations drop days with solidROADropProb.
const FlakyROAFraction = 0.28

const solidROADropProb = 0.0004

// BuildRPKIHistory generates the daily ROA-delegation visibility history
// over the routing window. adoptionProb is the fraction of leases whose
// parties deploy RPKI (the paper sees an order of magnitude fewer
// RPKI delegations than BGP delegations).
//
// Configured RPKIChurnStorms degrade the history inside their windows:
// the per-day drop probability rises to at least the storm's DropProb,
// and a StaleROAFraction share of delegations whose lease has ended
// before a storm closes keep publishing ROAs until the storm passes
// (stale authorizations that no longer match any active lease). Storm
// effects draw from side RNG streams so a world without storms is
// byte-for-byte identical to the pre-knob generator.
//
// Each delegation's days go through one rpki.Recorder, so its presence
// set is looked up once per lease rather than once per observed day.
func (w *World) BuildRPKIHistory(adoptionProb, dropProb float64) *rpki.History {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x4b1d))
	h := rpki.NewHistory(w.Cfg.RoutingStart, w.Cfg.RoutingDays)
	for _, l := range w.Leases {
		if !l.Routed || rng.Float64() > adoptionProb {
			continue
		}
		p := solidROADropProb
		if rng.Float64() < FlakyROAFraction {
			p = dropProb
		}
		r := h.Recorder(leaseDelegation(l))
		lo := maxInt(l.StartDay, 0)
		hi := minInt(l.EndDay, w.Cfg.RoutingDays)
		for day := lo; day < hi; day++ {
			drop := p
			if storm, ok := w.Cfg.stormOn(day); ok && storm.DropProb > drop {
				drop = storm.DropProb
			}
			if rng.Float64() < drop {
				continue // ROA temporarily absent from the validated set
			}
			r.Observe(day)
		}
	}
	w.observeStaleROAs(h, adoptionProb)
	return h
}

// leaseDelegation is the ROA delegation a lease's parties publish.
func leaseDelegation(l *Lease) rpki.Delegation {
	return rpki.Delegation{
		Parent: l.Parent,
		Child:  l.Child,
		From:   l.Provider.PrimaryAS(),
		To:     l.Customer.PrimaryAS(),
	}
}

// observeStaleROAs runs the stale-authorization pass: for every churn
// storm with a StaleROAFraction, delegations with no matching routed
// announcement surface in the validated set while the storm lasts —
// the lease ended before the storm closes, or it was a registry-only
// lease whose authorization was provisioned but never announced. Both
// model operators and validator caches serving authorizations nobody
// revokes during the churn. Each (lease, storm) pair draws from its
// own deterministic side stream, keeping the main generator's draw
// sequence untouched: with no storms configured this pass is a no-op.
func (w *World) observeStaleROAs(h *rpki.History, adoptionProb float64) {
	for si, storm := range w.Cfg.RPKIChurnStorms {
		if storm.StaleROAFraction <= 0 {
			continue
		}
		hi := minInt(storm.Window.EndDay, w.Cfg.RoutingDays)
		for li, l := range w.Leases {
			// Live routed leases are the main loop's job; everything
			// else is a stale candidate.
			ended := l.EndDay < storm.Window.EndDay
			if l.Routed && !ended {
				continue
			}
			srng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x57a1e ^ int64(li)*1_000_003 ^ int64(si)*2_147_483_659))
			// The lease's parties must have deployed RPKI at all, and
			// then failed to clean up the authorization.
			if srng.Float64() > adoptionProb || srng.Float64() >= storm.StaleROAFraction {
				continue
			}
			lo := maxInt(storm.Window.StartDay, 0)
			if l.Routed {
				// A routed lease was live in the validated set until it
				// ended; staleness begins at its end.
				lo = maxInt(lo, l.EndDay)
			}
			r := h.Recorder(leaseDelegation(l))
			for day := lo; day < hi; day++ {
				if srng.Float64() < storm.DropProb {
					continue
				}
				r.Observe(day)
			}
		}
	}
}

// BuildRPKISnapshot materializes the validated ROA set for one day:
// owners authorize their allocations, and RPKI-deploying lease customers
// authorize their leased children. The same adoption draw as
// BuildRPKIHistory is used so the two views agree.
func (w *World) BuildRPKISnapshot(day int, adoptionProb float64) *rpki.Snapshot {
	rng := rand.New(rand.NewSource(w.Cfg.Seed ^ 0x4b1d))
	snap := rpki.NewSnapshot(w.Cfg.RoutingStart.AddDate(0, 0, day))
	for _, a := range w.Registry.Allocations() {
		org := w.ByID[a.Org]
		if org == nil {
			continue
		}
		snap.Add(rpki.ROA{Prefix: a.Prefix, MaxLength: 24, ASN: org.PrimaryAS()})
	}
	for _, l := range w.Leases {
		if !l.Routed || rng.Float64() > adoptionProb {
			continue
		}
		if !l.ActiveOn(day) {
			continue
		}
		snap.Add(rpki.ROA{Prefix: l.Child, MaxLength: l.Child.Bits(), ASN: l.Customer.PrimaryAS()})
	}
	return snap
}
