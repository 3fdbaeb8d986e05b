// Package core assembles the full reproduction of "When Wells Run Dry:
// The 2020 IPv4 Address Market" (CoNEXT 2020): it builds the synthetic
// world, runs every analysis pipeline, and exposes one method per table,
// figure and headline statistic of the paper.
package core

import (
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"ipv4market/internal/bgp"
	"ipv4market/internal/delegation"
	"ipv4market/internal/market"
	"ipv4market/internal/netblock"
	"ipv4market/internal/rdap"
	"ipv4market/internal/registry"
	"ipv4market/internal/reputation"
	"ipv4market/internal/rpki"
	"ipv4market/internal/simulation"
	"ipv4market/internal/stats"
	"ipv4market/internal/whois"
)

// Study holds the generated world and the measurement pipelines.
//
// A Study is read-only after NewStudy returns: every accessor (Table1,
// Figure1-6, Headline, Coverage, Census, ...) derives its result from the
// constructed world without mutating shared state — randomized analyses
// draw from their own seed-derived RNGs, never from a shared stream.
// Repeated calls with the same receiver therefore return equal results,
// and any number of goroutines may call any accessors concurrently (the
// serving layer in internal/serve depends on this; TestStudyReadOnly
// enforces it under the race detector). The one lazily made value is the
// routing window's last-day survey (LastDaySurvey), drawn once behind a
// sync.Once and only read after.
type Study struct {
	Cfg     simulation.Config
	World   *simulation.World
	Routing *simulation.RoutingSim

	lastDay struct {
		once   sync.Once
		survey *bgp.OriginSurvey
	}
}

// LastDaySurvey returns the origin survey of the routing window's last
// day, RoutingDays-1. Several analyses read that day — the utilization
// series' last quarter, whose sample day is clamped to the window, the
// delegation inference the serving layer publishes, Coverage and
// Combined — so the survey is drawn once per study, on first use, and
// shared: callers must only read it. Concurrent first calls wait for
// the one draw.
func (s *Study) LastDaySurvey() *bgp.OriginSurvey {
	s.lastDay.once.Do(func() {
		s.lastDay.survey = s.Routing.SurveyAt(s.Cfg.RoutingDays - 1)
	})
	return s.lastDay.survey
}

// NewStudy builds the world and prepares the routing simulation.
func NewStudy(cfg simulation.Config) (*Study, error) {
	w, err := simulation.Build(cfg)
	if err != nil {
		return nil, err
	}
	return &Study{Cfg: cfg, World: w, Routing: simulation.NewRoutingSim(w)}, nil
}

// ---- Table 1 ----

// Table1Row is one line of the exhaustion timeline.
type Table1Row struct {
	RIR             registry.RIR
	DownToLastBlock time.Time
	Depleted        time.Time // zero: not depleted by mid-2020
	Phase2020       registry.Phase
	MaxAssignment   int // prefix length assignable in June 2020
	WaitingList     int // waiting-list capacity (0 = none)
}

// Table1 reproduces the exhaustion timeline, straight from the policy
// engine's milestone data.
func (s *Study) Table1() []Table1Row {
	ref := time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)
	var rows []Table1Row
	for _, r := range registry.AllRIRs() {
		m := registry.MilestonesOf(r)
		rows = append(rows, Table1Row{
			RIR:             r,
			DownToLastBlock: m.DownToLastBlock,
			Depleted:        m.Depleted,
			Phase2020:       registry.PhaseAt(r, ref),
			MaxAssignment:   registry.MaxAssignmentBits(r, ref),
			WaitingList:     registry.WaitingListLimit(r),
		})
	}
	return rows
}

// ---- Figures 1-4 ----

// Figure1 returns the price box plots by prefix size, region and quarter,
// restricted to the paper's pricing window (2016-01-01 to 2020-06-25).
func (s *Study) Figure1() []market.PriceCell {
	from := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC)
	to := time.Date(2020, 6, 26, 0, 0, 0, 0, time.UTC)
	var in []market.PriceRecord
	for _, r := range s.World.Prices {
		if !r.Date.Before(from) && r.Date.Before(to) {
			in = append(in, r)
		}
	}
	return market.PriceBoxes(in)
}

// Figure2 returns quarterly market-transfer counts per region, with M&A
// filtered out where the RIR labels it.
func (s *Study) Figure2() map[registry.RIR][]market.QuarterCount {
	return market.QuarterlyCounts(market.FilterMarketTransfers(s.World.Registry))
}

// Figure3 returns the inter-RIR transfer flows by year.
func (s *Study) Figure3() []market.InterRIRFlow {
	return market.InterRIRFlows(s.World.Registry)
}

// Figure4Point is one provider's advertised price at one sample date.
type Figure4Point struct {
	Provider string
	Bundled  bool
	Date     time.Time
	Price    float64
}

// Figure4 samples every provider's advertised /24 leasing price monthly
// between the paper's observation dates.
func (s *Study) Figure4() []Figure4Point {
	providers := market.PaperProviders()
	var out []Figure4Point
	for t := time.Date(2019, 10, 26, 0, 0, 0, 0, time.UTC); !t.After(time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)); t = t.AddDate(0, 1, 0) {
		for i := range providers {
			price, ok := providers[i].PriceAt(t)
			if !ok {
				continue
			}
			out = append(out, Figure4Point{
				Provider: providers[i].Name,
				Bundled:  providers[i].Bundled,
				Date:     t,
				Price:    price,
			})
		}
	}
	return out
}

// ---- Figure 5 ----

// Figure5 evaluates the consistency-rule fail rates on the RPKI history:
// N ∈ ns, M ∈ ms (the paper sweeps M to 100 for several N).
func (s *Study) Figure5(ms, ns []int) ([]rpki.RuleResult, error) {
	h := s.World.BuildRPKIHistory(0.8, simulation.DefaultROADropProb)
	return h.EvaluateGrid(ms, ns)
}

// ---- Figure 6 ----

// Figure6Point is one sampled day of the delegation time series.
type Figure6Point struct {
	Date          time.Time
	BaselineCount int
	BaselineIPs   uint64
	ExtendedCount int
	ExtendedIPs   uint64
}

// Figure6Result carries the series plus summary statistics.
type Figure6Result struct {
	Points []Figure6Point
	// GrowthExtended is last/first extended delegation count (paper: ~1.07).
	GrowthExtended float64
	// Share24First/Last and Share20First/Last are the /24 and /20
	// delegation shares in the first and last quarter of the window.
	Share24First, Share24Last float64
	Share20First, Share20Last float64
}

// Figure6 runs both inference algorithms over the routing window, sampling
// every sampleEvery days (1 = daily, as in the paper; larger strides trade
// temporal resolution for speed). The extended pipeline applies the 10-day
// consistency rule, scaled to the stride. The per-date inference fans out
// across NumCPU workers; Figure6Workers exposes the knob.
func (s *Study) Figure6(sampleEvery int) (Figure6Result, error) {
	return s.Figure6Workers(sampleEvery, 0)
}

// Figure6Workers is Figure6 with an explicit worker count (<= 0: NumCPU)
// for the per-date survey construction and delegation inference — the
// study's dominant cost, and embarrassingly parallel because each day's
// survey is an independent pure function of the world. Day results are
// merged into the timelines in day order regardless of completion order,
// so the result is byte-identical at any worker count (enforced by
// TestFigure6WorkersDeterministic).
func (s *Study) Figure6Workers(sampleEvery, workers int) (Figure6Result, error) {
	if sampleEvery < 1 {
		return Figure6Result{}, fmt.Errorf("core: sampleEvery must be ≥ 1")
	}
	days := s.Cfg.RoutingDays / sampleEvery
	if days == 0 {
		return Figure6Result{}, fmt.Errorf("core: empty sampling window")
	}
	baseTL := delegation.NewTimeline(s.Cfg.RoutingStart, days)
	extTL := delegation.NewTimeline(s.Cfg.RoutingStart, days)
	inf := delegation.DefaultInference(s.World.OrgSeries)

	// Fan out per sampled day: SurveyAt is a pure derivation of the
	// read-only world (safe concurrently), and each day's inference
	// touches nothing shared. The timelines are filled serially below,
	// in day order, because Timeline mutation is not concurrency-safe.
	daySurveys := make([]delegation.DaySurvey, days)
	for i := 0; i < days; i++ {
		day := i * sampleEvery
		daySurveys[i] = delegation.DaySurvey{
			Date:   s.Cfg.RoutingStart.AddDate(0, 0, day),
			Survey: func() *bgp.OriginSurvey { return s.Routing.SurveyAt(day) },
		}
	}
	inferred, err := inf.InferDays(workers, daySurveys)
	if err != nil {
		return Figure6Result{}, fmt.Errorf("core: per-date inference: %w", err)
	}
	for i, di := range inferred {
		baseTL.AddDay(i, di.Baseline)
		extTL.AddDay(i, di.Extended)
	}
	// Extension (v): the 10-day rule, in sample units.
	window := 10 / sampleEvery
	if window < 1 {
		window = 1
	}
	extTL.FillGaps(window)

	baseStats := baseTL.DailyStats()
	extStats := extTL.DailyStats()
	res := Figure6Result{}
	for i := 0; i < days; i++ {
		res.Points = append(res.Points, Figure6Point{
			Date:          s.Cfg.RoutingStart.AddDate(0, 0, i*sampleEvery),
			BaselineCount: baseStats[i].Delegations,
			BaselineIPs:   baseStats[i].DelegatedIPs,
			ExtendedCount: extStats[i].Delegations,
			ExtendedIPs:   extStats[i].DelegatedIPs,
		})
	}
	// Growth from the mean of the first and last few samples, which is
	// robust to single-day announcement noise.
	k := days / 8
	if k < 1 {
		k = 1
	}
	var first, last float64
	for i := 0; i < k; i++ {
		first += float64(extStats[i].Delegations)
		last += float64(extStats[days-1-i].Delegations)
	}
	if first > 0 {
		res.GrowthExtended = last / first
	}
	qtr := days / 4
	if qtr < 1 {
		qtr = 1
	}
	sharesFirst := extTL.SizeShares(0, qtr, 24, 20)
	sharesLast := extTL.SizeShares(days-qtr, days, 24, 20)
	res.Share24First, res.Share20First = sharesFirst[24], sharesFirst[20]
	res.Share24Last, res.Share20Last = sharesLast[24], sharesLast[20]
	return res, nil
}

// ---- §4 coverage (S1) and census (S2) ----

// CoverageResult compares the BGP and RDAP views of the leasing market on
// the final day of the window.
type CoverageResult struct {
	BGPDelegations   int
	BGPIPs           uint64
	RDAPDelegations  int
	RDAPIPs          uint64
	IntersectionIPs  uint64
	BGPCoverOfRDAP   float64 // |BGP ∩ RDAP| / |RDAP| — paper: ~1.85%
	RDAPCoverOfBGP   float64 // |BGP ∩ RDAP| / |BGP| — paper: ~65.7%
	RDAPQueries      int
	RDAPSkippedSmall int
	RDAPIntraOrg     int
}

// Coverage runs the full §4 comparison: it serves the WHOIS snapshot over
// a loopback RDAP server, walks it with the RDAP client, infers the BGP
// delegations for the last day, and intersects the address sets.
func (s *Study) Coverage() (CoverageResult, error) {
	db := s.World.BuildWhoisDB()

	// RDAP side: loopback HTTP server over the snapshot.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return CoverageResult{}, fmt.Errorf("core: rdap listener: %w", err)
	}
	srv := &http.Server{Handler: rdap.NewServer(db)}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // returns on Close
	}()
	defer func() {
		srv.Close()
		<-done
	}()

	client := rdap.NewClient("http://"+ln.Addr().String(), nil)
	surveyRes, err := client.Survey(db, rdap.DefaultSurveyOptions())
	if err != nil {
		return CoverageResult{}, err
	}
	rdapSet := netblock.NewSet()
	for _, d := range surveyRes.Delegations {
		first, err1 := netblock.ParseAddr(d.Child.StartAddress)
		last, err2 := netblock.ParseAddr(d.Child.EndAddress)
		if err1 == nil && err2 == nil {
			rdapSet.AddRange(first, last)
		}
	}

	// BGP side: extended inference on the final day.
	day := s.Cfg.RoutingDays - 1
	inf := delegation.DefaultInference(s.World.OrgSeries)
	ds := inf.FromSurvey(s.Cfg.RoutingStart.AddDate(0, 0, day), s.LastDaySurvey())
	bgpSet := netblock.NewSet()
	for _, d := range ds {
		bgpSet.AddPrefix(d.Child)
	}

	res := CoverageResult{
		BGPDelegations:   len(ds),
		BGPIPs:           bgpSet.Size(),
		RDAPDelegations:  len(surveyRes.Delegations),
		RDAPIPs:          rdapSet.Size(),
		IntersectionIPs:  bgpSet.IntersectionSize(rdapSet),
		RDAPQueries:      surveyRes.Queried,
		RDAPSkippedSmall: surveyRes.Skipped,
		RDAPIntraOrg:     surveyRes.IntraOrg,
	}
	if res.RDAPIPs > 0 {
		res.BGPCoverOfRDAP = float64(res.IntersectionIPs) / float64(res.RDAPIPs)
	}
	if res.BGPIPs > 0 {
		res.RDAPCoverOfBGP = float64(res.IntersectionIPs) / float64(res.BGPIPs)
	}
	return res, nil
}

// Census returns the WHOIS input-space statistics of §4.
func (s *Study) Census() whois.Census {
	return s.World.BuildWhoisDB().TakeCensus()
}

// ---- §3 headline statistics (S3) ----

// HeadlineStats carries the paper's §3 summary numbers.
type HeadlineStats struct {
	MeanPrice2020 float64        // paper: ≈ $22.50
	MeanPriceCI   stats.Interval // bootstrap 95% CI around the 2020 mean
	GrowthFactor  float64        // paper: ≈ 2 since 2016
	RegionTest    stats.RankTestResult
	RegionDiffers bool // paper: false
	SizePremium   float64
	Consolidation market.Consolidation
	Consolidated  bool // paper: true, from Spring 2019
	PricedRecords int
}

// Headline computes the §3 statistics from the price records.
func (s *Study) Headline() (HeadlineStats, error) {
	prices := s.World.Prices
	d := func(y, m int) time.Time { return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }
	var out HeadlineStats
	out.PricedRecords = len(prices)
	var err error
	if out.MeanPrice2020, err = market.MeanPrice(prices, d(2020, 1), d(2020, 7)); err != nil {
		return out, err
	}
	var xs2020 []float64
	for _, r := range prices {
		if !r.Date.Before(d(2020, 1)) && r.Date.Before(d(2020, 7)) {
			xs2020 = append(xs2020, r.PricePerAddr)
		}
	}
	if ci, err := stats.BootstrapMeanCI(rand.New(rand.NewSource(s.Cfg.Seed)), xs2020, 1000, 0.95); err == nil {
		out.MeanPriceCI = ci
	}
	if out.GrowthFactor, err = market.GrowthFactor(prices, d(2016, 1), d(2017, 1), d(2019, 7), d(2020, 7)); err != nil {
		return out, err
	}
	if out.RegionTest, err = market.RegionEffect(prices, d(2018, 1), d(2020, 7)); err != nil {
		return out, err
	}
	out.RegionDiffers = out.RegionTest.Significant(0.05)
	if premium, _, err := market.SizeEffect(prices, d(2019, 1), d(2020, 7)); err == nil {
		out.SizePremium = premium
	}
	out.Consolidation, out.Consolidated = market.DetectConsolidation(prices, 0.01, 4)
	return out, nil
}

// ---- §6 amortization (S4) ----

// AmortizationTable sweeps the §6 buy-vs-lease grid across the advertised
// leasing range, using the 2020 mean price, a mid-range broker commission,
// and the RIR fees a small holder pays per address (a RIPE-sized annual
// membership fee spread over one /24 is a few dollars per address; larger
// holders amortize faster). This reproduces the paper's span from under a
// year to several tens of years.
func (s *Study) AmortizationTable() []market.GridRow {
	rates := []float64{0.30, 0.40, 0.56, 0.75, 1.00, 1.50, 2.00, 2.33, 2.40}
	return market.Grid(22.50, 0.075, 2.9, rates)
}

// ---- §2 waiting-list dynamics (S6) ----

// WaitingLists simulates the post-depletion request regimes of ARIN and
// the RIPE NCC through the registry policy engine (§2: ARIN waits of up
// to 130+ days; RIPE clearing its list from recovered space).
func (s *Study) WaitingLists() []simulation.WaitingListOutcome {
	return []simulation.WaitingListOutcome{
		simulation.SimulateWaitingList(simulation.ARIN2020Scenario()),
		simulation.SimulateWaitingList(simulation.RIPE2019Scenario()),
	}
}

// ---- §2 reputation (S7) ----

// ReputationStats summarizes the blacklist ecosystem at the end of the
// routing window.
type ReputationStats struct {
	Listings      int
	LeasesListed  int
	LeasesTainted int
	LeasesClean   int
	// Shield efficacy over provider blocks whose leased children were
	// listed: how many parents stay clean thanks to the WHOIS record
	// (SWIP shield), vs. how many are hit.
	ParentsAtRisk   int
	ParentsShielded int
	// MeanPriceFactor is the average reputation discount a buyer would
	// apply across all leased children.
	MeanPriceFactor float64
}

// Reputation evaluates the §2 "not all IP addresses are equal" ecosystem:
// the blacklist derived from spammer/VPN leases, the clean/tainted/listed
// split, and the SWIP-shield efficacy for providers.
func (s *Study) Reputation() ReputationStats {
	bl := s.World.BuildBlacklist()
	db := s.World.BuildWhoisDB()
	at := s.Cfg.RoutingStart.AddDate(0, 0, s.Cfg.RoutingDays)

	var out ReputationStats
	out.Listings = bl.Len()
	var factorSum float64
	seenParents := make(map[string]bool)
	for _, l := range s.World.Leases {
		st := bl.StatusAt(l.Child, at)
		switch st {
		case reputation.Listed:
			out.LeasesListed++
		case reputation.Tainted:
			out.LeasesTainted++
		default:
			out.LeasesClean++
		}
		factorSum += reputation.PriceFactor(st)

		if st == reputation.Clean {
			continue
		}
		// The provider's covering block: does the WHOIS record shield it?
		key := l.Parent.String() + "|" + string(l.Provider.ID)
		if seenParents[key] {
			continue
		}
		seenParents[key] = true
		out.ParentsAtRisk++
		if bl.ShieldedStatusAt(l.Parent, at, db, string(l.Provider.ID)) == reputation.Clean {
			out.ParentsShielded++
		}
	}
	if n := len(s.World.Leases); n > 0 {
		out.MeanPriceFactor = factorSum / float64(n)
	}
	return out
}

// ---- §3 merger inference (S8) ----

// Mergers evaluates the Giotsas-style M&A heuristic against the
// simulation's ground-truth transfer types — the evaluation the paper
// found missing from prior work. It scores the heuristic only over the
// regions whose logs lack the M&A label (APNIC, LACNIC), where it would
// actually be applied.
func (s *Study) Mergers() market.MergerEvaluation {
	var unlabeled []registry.Transfer
	for _, t := range s.World.Registry.Transfers() {
		if !registry.LabelsMA(t.FromRIR) {
			unlabeled = append(unlabeled, t)
		}
	}
	return market.EvaluateMergerHeuristic(market.DefaultMergerHeuristic(), unlabeled)
}

// ---- §7 combined estimate (S9) ----

// CombinedEstimate compares the three delegation vantage points — BGP
// (usage), RDAP (administration), RPKI (authorization) — against the
// simulation's ground-truth leasing market, and measures how much of the
// market each source and their union recovers. §7 argues future work
// "should combine routing information, RPKI data, as well as the RDAP
// databases"; this experiment quantifies the gain.
type CombinedEstimate struct {
	TruthIPs    uint64 // addresses under active leases at window end
	BGPIPs      uint64
	RDAPIPs     uint64
	RPKIIPs     uint64
	UnionIPs    uint64
	BGPRecall   float64 // |BGP ∩ truth| / |truth|
	RDAPRecall  float64
	RPKIRecall  float64
	UnionRecall float64
}

// Combined runs the three pipelines on the final day and intersects each
// view with the ground truth.
func (s *Study) Combined() (CombinedEstimate, error) {
	day := s.Cfg.RoutingDays - 1
	at := s.Cfg.RoutingStart.AddDate(0, 0, day)

	truth := netblock.NewSet()
	for _, l := range s.World.Leases {
		if l.ActiveOn(day) {
			truth.AddPrefix(l.Child)
		}
	}

	// BGP view.
	inf := delegation.DefaultInference(s.World.OrgSeries)
	bgpSet := netblock.NewSet()
	for _, d := range inf.FromSurvey(at, s.LastDaySurvey()) {
		bgpSet.AddPrefix(d.Child)
	}

	// RDAP view (reuse the Coverage machinery's building blocks).
	db := s.World.BuildWhoisDB()
	rdapSet := netblock.NewSet()
	for _, in := range db.All() {
		if in.Status != whois.StatusAssignedPA && in.Status != whois.StatusSubAllocatedPA {
			continue
		}
		if in.NumAddrs() < 256 {
			continue
		}
		rdapSet.AddRange(in.First, in.Last)
	}

	// RPKI view.
	rpkiSet := netblock.NewSet()
	for _, d := range s.World.BuildRPKISnapshot(day, 0.8).Delegations() {
		rpkiSet.AddPrefix(d.Child)
	}

	union := bgpSet.Clone()
	union.Union(rdapSet)
	union.Union(rpkiSet)

	est := CombinedEstimate{
		TruthIPs: truth.Size(),
		BGPIPs:   bgpSet.Size(),
		RDAPIPs:  rdapSet.Size(),
		RPKIIPs:  rpkiSet.Size(),
		UnionIPs: union.Size(),
	}
	if est.TruthIPs > 0 {
		t := float64(est.TruthIPs)
		est.BGPRecall = float64(bgpSet.IntersectionSize(truth)) / t
		est.RDAPRecall = float64(rdapSet.IntersectionSize(truth)) / t
		est.RPKIRecall = float64(rpkiSet.IntersectionSize(truth)) / t
		est.UnionRecall = float64(union.IntersectionSize(truth)) / t
	}
	return est, nil
}
