package core

import (
	"context"
	"fmt"
	"slices"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/parallel"
	"ipv4market/internal/registry"
	"ipv4market/internal/rpki"
	"ipv4market/internal/simulation"
)

// UtilizationPoint compares, for one quarter of the routing window, the
// three address-count vantage points of the utilization-inference
// literature: space the registries handed out (allocated), space visible
// in BGP at the quarter's sample day (routed), and the estimated count
// of addresses actually active inside the routed space.
type UtilizationPoint struct {
	Quarter   string    // "2018Q1"
	Date      time.Time // sampled day (last window day of the quarter)
	Allocated uint64
	Routed    uint64
	Active    uint64
}

// utilizationMinVisibility keeps only origins seen by at least half the
// monitors, discarding the low-visibility hijack and leak noise before
// counting routed space.
const utilizationMinVisibility = 0.5

// UtilizationWorkers samples the allocated/routed/active address counts
// on the last window day of each quarter the routing window touches,
// across the given number of workers (<= 0: NumCPU). Each quarter
// derives from the read-only world independently and results merge in
// quarter order, so the output is identical at any worker count. The
// quarters share one survey buffer per worker, refilled in place for
// each sampled day. The last quarter's sample day is clamped to the
// window's last day, whose survey the study draws once and shares
// (LastDaySurvey).
func (s *Study) UtilizationWorkers(workers int) ([]UtilizationPoint, error) {
	windowEnd := s.Cfg.RoutingStart.AddDate(0, 0, s.Cfg.RoutingDays)
	var sampleDays []int
	q := quarterStart(s.Cfg.RoutingStart)
	for q.Before(windowEnd) {
		next := q.AddDate(0, 3, 0)
		sample := next.AddDate(0, 0, -1)
		if !sample.Before(windowEnd) {
			sample = windowEnd.AddDate(0, 0, -1)
		}
		day := int(sample.Sub(s.Cfg.RoutingStart).Hours() / 24)
		if day >= 0 {
			sampleDays = append(sampleDays, day)
		}
		q = next
	}
	allocated := s.allocatedOn(sampleDays)
	// At most one buffer per running worker: a worker takes an idle
	// buffer or makes one, and gives it back when its quarter is done.
	idle := make(chan *simulation.SurveyBuffer, len(sampleDays))
	points, err := parallel.Map(context.Background(), workers, len(sampleDays),
		func(_ context.Context, i int) (UtilizationPoint, error) {
			var buf *simulation.SurveyBuffer
			select {
			case buf = <-idle:
			default:
				buf = new(simulation.SurveyBuffer)
			}
			defer func() { idle <- buf }()
			return s.utilizationAt(buf, sampleDays[i], allocated[i]), nil
		})
	if err != nil {
		return nil, fmt.Errorf("core: utilization sampling: %w", err)
	}
	return points, nil
}

// allocatedOn returns, for each of the ascending routing-window days,
// the address count of the allocations dated on or before it, from one
// date-ordered sweep of the registry. Its live allocations are
// disjoint, so the running sum of their sizes is the size of their
// union.
func (s *Study) allocatedOn(days []int) []uint64 {
	allocs := s.World.Registry.Allocations()
	slices.SortFunc(allocs, func(a, b *registry.Allocation) int { return a.Date.Compare(b.Date) })
	out := make([]uint64, len(days))
	var sum uint64
	next := 0
	for i, day := range days {
		at := s.Cfg.RoutingStart.AddDate(0, 0, day)
		for ; next < len(allocs) && !allocs[next].Date.After(at); next++ {
			sum += allocs[next].Prefix.NumAddrs()
		}
		out[i] = sum
	}
	return out
}

// utilizationAt computes one quarter's point, given the day's allocated
// address count, surveying the day into buf (or reading the shared
// survey of the window's last day). Pure derivation of the
// read-only world: safe for concurrent calls with distinct buffers.
func (s *Study) utilizationAt(buf *simulation.SurveyBuffer, day int, allocated uint64) UtilizationPoint {
	at := s.Cfg.RoutingStart.AddDate(0, 0, day)

	survey := s.LastDaySurvey()
	if day != s.Cfg.RoutingDays-1 {
		survey = s.Routing.SurveyInto(buf, day)
	}
	routed := netblock.NewSet()
	survey.EachVisiblePrefix(utilizationMinVisibility, routed.AddPrefix)

	// Active addresses: the activity fraction applied per canonical
	// disjoint prefix of the routed set (disjointness prevents leased
	// more-specifics from being counted under their parent again).
	var active uint64
	for _, p := range routed.Prefixes() {
		active += uint64(s.World.ActivityFraction(p)*float64(p.NumAddrs()) + 0.5)
	}

	return UtilizationPoint{
		Quarter:   fmt.Sprintf("%dQ%d", at.Year(), (int(at.Month())-1)/3+1),
		Date:      at,
		Allocated: allocated,
		Routed:    routed.Size(),
		Active:    active,
	}
}

// quarterStart returns the first day of t's calendar quarter.
func quarterStart(t time.Time) time.Time {
	m := time.Month((int(t.Month())-1)/3*3 + 1)
	return time.Date(t.Year(), m, 1, 0, 0, 0, 0, time.UTC)
}

// RPKIBucket aggregates the ROA-delegation history over one 30-day
// stretch of the routing window.
type RPKIBucket struct {
	Date         time.Time // first day of the bucket
	Days         int       // days covered (the last bucket may be short)
	MeanPresent  float64   // mean delegations visible per day
	MaxPresent   int       // peak single-day visibility
	Churn        int       // presence transitions summed over the bucket
	MeanChurnDay float64   // Churn / Days
}

// RPKISeriesResult is the RPKI observability artifact: the bucketed
// presence/churn series plus consistency-rule fail rates. Churn storms
// configured on the world surface as churn spikes and elevated fail
// rates in the storm's buckets.
type RPKISeriesResult struct {
	Delegations int
	Buckets     []RPKIBucket
	Rules       []rpki.RuleResult
}

// rpkiBucketDays is the aggregation stride of RPKISeries.
const rpkiBucketDays = 30

// RPKISeries builds the RPKI observability series from the same history
// Figure 5 evaluates (80% adoption, default drop probability), without
// gap filling so churn stays visible.
func (s *Study) RPKISeries() (RPKISeriesResult, error) {
	h := s.World.BuildRPKIHistory(0.8, simulation.DefaultROADropProb)
	present := h.PresenceCount()
	churn := h.DailyChurn()

	res := RPKISeriesResult{Delegations: h.NumDelegations()}
	for lo := 0; lo < h.Days(); lo += rpkiBucketDays {
		hi := lo + rpkiBucketDays
		if hi > h.Days() {
			hi = h.Days()
		}
		b := RPKIBucket{Date: h.Start().AddDate(0, 0, lo), Days: hi - lo}
		sum := 0
		for d := lo; d < hi; d++ {
			sum += present[d]
			if present[d] > b.MaxPresent {
				b.MaxPresent = present[d]
			}
			b.Churn += churn[d]
		}
		b.MeanPresent = float64(sum) / float64(b.Days)
		b.MeanChurnDay = float64(b.Churn) / float64(b.Days)
		res.Buckets = append(res.Buckets, b)
	}

	rules, err := h.EvaluateGrid([]int{5, 10, 30}, []int{0, 3})
	if err != nil {
		return RPKISeriesResult{}, fmt.Errorf("core: rpki rule grid: %w", err)
	}
	res.Rules = rules
	return res, nil
}
