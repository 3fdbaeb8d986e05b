package simulation

import (
	"runtime/debug"
	"testing"
	"time"

	"ipv4market/internal/bgp"
	"ipv4market/internal/delegation"
	"ipv4market/internal/market"
	"ipv4market/internal/registry"
	"ipv4market/internal/whois"
)

// testConfig returns a small, fast world for tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.NumLIRs = 18
	cfg.RoutingDays = 60
	cfg.AdministrativeLeases = 120
	cfg.RoutedLeases = 50
	cfg.MonitorsPerCollector = 4
	cfg.SmallAssignmentsPerLIR = 10
	return cfg
}

func buildTestWorld(t testing.TB) *World {
	t.Helper()
	w, err := Build(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestBuildDeterminism(t *testing.T) {
	w1 := buildTestWorld(t)
	w2 := buildTestWorld(t)
	if len(w1.Orgs) != len(w2.Orgs) || len(w1.Leases) != len(w2.Leases) || len(w1.Prices) != len(w2.Prices) {
		t.Fatal("same seed must give the same world")
	}
	for i := range w1.Leases {
		if w1.Leases[i].Child != w2.Leases[i].Child || w1.Leases[i].StartDay != w2.Leases[i].StartDay {
			t.Fatalf("lease %d differs between builds", i)
		}
	}
	t1 := w1.Registry.Transfers()
	t2 := w2.Registry.Transfers()
	if len(t1) != len(t2) {
		t.Fatal("transfer history differs")
	}
	for i := range t1 {
		if t1[i] != t2[i] {
			t.Fatalf("transfer %d differs", i)
		}
	}
}

func TestWorldPopulation(t *testing.T) {
	w := buildTestWorld(t)
	if len(w.Orgs) == 0 || len(w.Leases) == 0 || len(w.Prices) == 0 {
		t.Fatal("world should be populated")
	}
	// Org/AS indexes consistent.
	for _, o := range w.Orgs {
		if w.ByID[o.ID] != o {
			t.Fatalf("ByID broken for %s", o.ID)
		}
		for _, a := range o.ASNs {
			if w.ByAS[a] != o {
				t.Fatalf("ByAS broken for %s", a)
			}
		}
	}
	// AFRINIC/LACNIC get fewer LIRs.
	if w.Registry.NumMembers(registry.AFRINIC) >= w.Registry.NumMembers(registry.RIPENCC) {
		t.Error("AFRINIC should have fewer members than RIPE")
	}
	// as2org series resolves same-org pairs.
	for _, o := range w.Orgs {
		if len(o.ASNs) >= 2 {
			if !w.OrgSeries.SameOrgAt(w.Cfg.RoutingStart, o.ASNs[0], o.ASNs[1]) {
				t.Error("multi-AS org not same-org in series")
			}
			break
		}
	}
}

func TestTransferMarketShape(t *testing.T) {
	w := buildTestWorld(t)
	transfers := w.Registry.Transfers()
	counts := market.QuarterlyCounts(market.FilterMarketTransfers(w.Registry))

	sum := func(r registry.RIR) int {
		n := 0
		for _, qc := range counts[r] {
			n += qc.Count
		}
		return n
	}
	arin, ripe, apnic := sum(registry.ARIN), sum(registry.RIPENCC), sum(registry.APNIC)
	afr, lac := sum(registry.AFRINIC), sum(registry.LACNIC)
	if arin <= ripe || arin <= apnic {
		t.Errorf("ARIN should dominate: arin=%d ripe=%d apnic=%d", arin, ripe, apnic)
	}
	if afr+lac > (arin+ripe+apnic)/10 {
		t.Errorf("AFRINIC+LACNIC markets should be negligible: %d vs %d", afr+lac, arin+ripe+apnic)
	}
	// No transfers before each market opened.
	for _, tr := range transfers {
		if tr.Type == registry.TypeMarket && !registry.TransferMarketOpen(tr.FromRIR, tr.Date) {
			t.Errorf("market transfer before market open: %+v", tr)
		}
	}

	// Inter-RIR flows exist, mostly out of ARIN (Figure 3).
	flows := market.InterRIRFlows(w.Registry)
	if len(flows) == 0 {
		t.Fatal("no inter-RIR flows")
	}
	nf := market.NetFlow(transfers, time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC), w.Cfg.MarketEnd)
	if nf[registry.ARIN] >= 0 {
		t.Errorf("ARIN net flow should be negative, got %d", nf[registry.ARIN])
	}
}

func TestPriceShape(t *testing.T) {
	w := buildTestWorld(t)
	d := func(y, m int) time.Time { return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }

	factor, err := market.GrowthFactor(w.Prices, d(2016, 1), d(2017, 1), d(2019, 7), d(2020, 7))
	if err != nil {
		t.Fatal(err)
	}
	if factor < 1.6 || factor > 2.6 {
		t.Errorf("price growth factor = %v, want ≈2", factor)
	}
	mean2020, err := market.MeanPrice(w.Prices, d(2020, 1), d(2020, 7))
	if err != nil {
		t.Fatal(err)
	}
	if mean2020 < 20 || mean2020 > 26 {
		t.Errorf("2020 mean price = $%.2f, want ≈$22.50", mean2020)
	}
	// No significant region effect.
	re, err := market.RegionEffect(w.Prices, d(2018, 1), d(2020, 7))
	if err != nil {
		t.Fatal(err)
	}
	if re.Significant(0.01) {
		t.Errorf("region effect p = %v; prices should not differ by region", re.PValue)
	}
	// Consolidation detected, starting no earlier than 2018 (a 1%-per-
	// quarter tolerance, as the core study uses).
	cons, ok := market.DetectConsolidation(w.Prices, 0.01, 4)
	if !ok {
		t.Fatal("no consolidation phase detected")
	}
	if cons.Since.Year < 2018 {
		t.Errorf("consolidation since %v, expected around 2019", cons.Since)
	}
}

func TestPriceLevelTrajectory(t *testing.T) {
	d := func(y, m int) time.Time { return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }
	if PriceLevel(d(2016, 1)) >= PriceLevel(d(2018, 1)) {
		t.Error("prices must rise 2016→2018")
	}
	if PriceLevel(d(2019, 6)) != PriceLevel(d(2020, 6)) {
		t.Error("plateau after Spring 2019")
	}
	if PriceLevel(d(2020, 1)) != 22.5 {
		t.Errorf("plateau level = %v", PriceLevel(d(2020, 1)))
	}
	if PriceLevel(d(2010, 1)) < 5 || PriceLevel(d(2010, 1)) > 8.5 {
		t.Errorf("early price = %v", PriceLevel(d(2010, 1)))
	}
}

func TestWhoisDBShape(t *testing.T) {
	w := buildTestWorld(t)
	db := w.BuildWhoisDB()
	census := db.TakeCensus()
	if census.Total == 0 || census.SubAllocatedBlocks == 0 {
		t.Fatalf("census = %+v", census)
	}
	// Most ASSIGNED PA entries are smaller than /24 (paper: 91.4%).
	if census.FracAssignedSub24 < 0.5 {
		t.Errorf("FracAssignedSub24 = %v, want majority", census.FracAssignedSub24)
	}
	// Every whois-registered lease has an object.
	for _, l := range w.Leases {
		if !l.InWhois {
			continue
		}
		if _, ok := db.Lookup(l.Child.First(), l.Child.Last()); !ok {
			t.Fatalf("lease %v missing from WHOIS", l.Child)
		}
	}
	// WHOIS snapshot round-trips.
	var n int
	for _, o := range db.All() {
		if o.Status == whois.StatusAllocatedPA {
			n++
		}
	}
	if n == 0 {
		t.Error("no ALLOCATED PA objects")
	}
}

func TestRoutingSimDelegationInference(t *testing.T) {
	w := buildTestWorld(t)
	rs := NewRoutingSim(w)
	if rs.NumMonitors() != w.Cfg.Collectors*w.Cfg.MonitorsPerCollector {
		t.Fatalf("NumMonitors = %d", rs.NumMonitors())
	}

	day := 10
	survey := rs.SurveyAt(day)
	if survey.NumMonitors() != rs.NumMonitors() {
		t.Fatalf("survey monitors = %d", survey.NumMonitors())
	}

	inf := delegation.DefaultInference(w.OrgSeries)
	date := w.Cfg.RoutingStart.AddDate(0, 0, day)
	extended := inf.FromSurvey(date, survey)
	baseline := delegation.Baseline(survey)

	if len(extended) == 0 {
		t.Fatal("extended algorithm found no delegations")
	}
	// The extensions only remove: extended ⊆ baseline-ish in count.
	if len(extended) > len(baseline) {
		t.Errorf("extended (%d) should not exceed baseline (%d)", len(extended), len(baseline))
	}

	// Recall against ground truth: most announced leases (provider and
	// customer in different orgs, not MOAS-tainted) must be recovered.
	truth := rs.TrueDelegationsOn(day)
	found := make(map[string]bool)
	for _, d := range extended {
		found[d.Child.String()] = true
	}
	recovered, total := 0, 0
	for child := range truth {
		total++
		if found[child.String()] {
			recovered++
		}
	}
	if total == 0 {
		t.Fatal("no ground-truth delegations on day 10")
	}
	if frac := float64(recovered) / float64(total); frac < 0.7 {
		t.Errorf("recall = %.2f (%d/%d), want ≥ 0.7", frac, recovered, total)
	}

	// Precision: every extended delegation should be a true lease child
	// (hijacks and MOAS are filtered; scrub-like noise is not generated).
	falsePos := 0
	for _, d := range extended {
		if _, ok := truth[d.Child]; !ok {
			falsePos++
		}
	}
	if frac := float64(falsePos) / float64(len(extended)); frac > 0.1 {
		t.Errorf("false-positive rate = %.2f", frac)
	}
}

func TestRoutingSimDayDeterminism(t *testing.T) {
	w := buildTestWorld(t)
	rs := NewRoutingSim(w)
	s1 := rs.SurveyAt(7)
	s2 := rs.SurveyAt(7)
	p1 := s1.Pairs()
	p2 := s2.Pairs()
	if len(p1) != len(p2) {
		t.Fatal("same day must be deterministic")
	}
	for i := range p1 {
		if p1[i] != p2[i] {
			t.Fatalf("pair %d differs", i)
		}
	}
}

func TestRPKIHistoryCalibration(t *testing.T) {
	cfg := testConfig()
	cfg.RoutingDays = 200
	cfg.RoutedLeases = 80
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := w.BuildRPKIHistory(0.8, DefaultROADropProb)
	if h.NumDelegations() == 0 {
		t.Fatal("no RPKI delegations")
	}
	r10, err := h.EvaluateRule(10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r10.Premises == 0 {
		t.Fatal("no premises for rule 10/0")
	}
	// Appendix: fail rate ≈ 5% for M=10, N=0.
	if fr := r10.FailRate(); fr < 0.02 || fr > 0.09 {
		t.Errorf("fail rate M=10,N=0 = %.3f, want ≈0.05", fr)
	}
	// Fail rate never reaches 30% even at M=100.
	r100, err := h.EvaluateRule(100, 0)
	if err != nil {
		t.Fatal(err)
	}
	if r100.Premises > 0 && r100.FailRate() >= 0.75 {
		t.Errorf("fail rate M=100,N=0 = %.3f", r100.FailRate())
	}
	// With N=3, 90-day windows should mostly hold (paper: ~90%).
	r90, err := h.EvaluateRule(90, 3)
	if err != nil {
		t.Fatal(err)
	}
	if r90.Premises > 0 && r90.FailRate() > 0.25 {
		t.Errorf("fail rate M=90,N=3 = %.3f, want small", r90.FailRate())
	}
}

func TestRPKISnapshotDelegations(t *testing.T) {
	w := buildTestWorld(t)
	snap := w.BuildRPKISnapshot(10, 1.0)
	if snap.Len() == 0 {
		t.Fatal("empty snapshot")
	}
	ds := snap.Delegations()
	if len(ds) == 0 {
		t.Fatal("no ROA delegations inferred")
	}
	// Every inferred delegation corresponds to a lease child or nested
	// allocation; sanity: children strictly inside parents.
	for _, d := range ds {
		if !d.Parent.CoversStrictly(d.Child) {
			t.Fatalf("bad delegation %+v", d)
		}
	}
}

// TestScrubbingCreatesFalsePositives verifies the limitation §4 concedes:
// a scrubbing service announcing a customer's more-specific looks exactly
// like a delegation and survives the extended algorithm's filters.
func TestScrubbingCreatesFalsePositives(t *testing.T) {
	cfg := testConfig()
	cfg.RoutingDays = 200 // more window → at least one scrub event likely
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRoutingSim(w)

	// Find a day with an active scrub event.
	day := -1
	for d := 0; d < cfg.RoutingDays; d++ {
		if len(rs.ScrubbedPrefixesOn(d)) > 0 {
			day = d
			break
		}
	}
	if day < 0 {
		t.Skip("no scrub event generated at this scale")
	}
	inf := delegation.DefaultInference(w.OrgSeries)
	ds := inf.FromSurvey(cfg.RoutingStart.AddDate(0, 0, day), rs.SurveyAt(day))
	byChild := map[string]bool{}
	for _, d := range ds {
		byChild[d.Child.String()] = true
	}
	found := false
	for _, p := range rs.ScrubbedPrefixesOn(day) {
		if byChild[p.String()] {
			found = true
		}
	}
	if !found {
		t.Error("scrubbed prefix should be inferred as a (false) delegation — the documented limitation")
	}
}

func TestLegacyHolders(t *testing.T) {
	w := buildTestWorld(t)
	var legacy []*registry.Allocation
	for _, a := range w.Registry.Allocations() {
		if a.Status == registry.StatusLegacy {
			legacy = append(legacy, a)
		}
	}
	// Legacy space fragments as holders sell and lease, and every
	// fragment keeps its legacy status; at least the nine original
	// holders' space must be present across all three seeded /8s.
	if len(legacy) < 9 {
		t.Fatalf("legacy allocations = %d", len(legacy))
	}
	regions := map[registry.RIR]bool{}
	orgs := map[registry.OrgID]bool{}
	for _, a := range legacy {
		regions[a.RIR] = true
		orgs[a.Org] = true
	}
	if len(regions) != 3 || len(orgs) < 9 {
		t.Errorf("legacy spread: %d regions, %d orgs", len(regions), len(orgs))
	}
	db := w.BuildWhoisDB()
	for _, a := range legacy {
		o, ok := db.Lookup(a.Prefix.First(), a.Prefix.Last())
		if !ok || o.Status != whois.StatusLegacy {
			t.Errorf("legacy block %v: whois = %+v, %v", a.Prefix, o, ok)
		}
		org := w.ByID[a.Org]
		if org == nil {
			t.Fatalf("legacy org %s missing from world", a.Org)
		}
	}
	// Legacy space is announced: its prefix-origin pairs reach the survey.
	rs := NewRoutingSim(w)
	clean := rs.SurveyAt(0).CleanPairs(0.5)
	found := 0
	for _, a := range legacy {
		if origin, ok := clean[a.Prefix]; ok && origin == w.ByID[a.Org].PrimaryAS() {
			found++
		}
	}
	if found == 0 {
		t.Error("no legacy announcements visible in BGP")
	}
}

// TestROVFiltersHijacks: with full RPKI deployment, route origin
// validation classifies hijack announcements as invalid and
// SanitizeWithROV removes them — connecting the appendix's RPKI data to
// the sanitization stage (§7's "combine routing information and RPKI").
func TestROVFiltersHijacks(t *testing.T) {
	cfg := testConfig()
	cfg.HijackRate = 5 // make hijacks near-certain on any given day
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRoutingSim(w)
	snap := w.BuildRPKISnapshot(10, 1.0)

	totalDropped := 0
	for ci := 0; ci < rs.NumCollectors(); ci++ {
		c := rs.CollectorAt(10, ci)
		for p := 0; p < c.NumPeers(); p++ {
			routes := c.PeerRIB(p).Routes()
			plain, _ := bgp.Sanitize(routes)
			rov, _, dropped := bgp.SanitizeWithROV(routes, snap)
			if len(rov)+dropped != len(plain) {
				t.Fatalf("ROV accounting: %d + %d != %d", len(rov), dropped, len(plain))
			}
			totalDropped += dropped
		}
	}
	if totalDropped == 0 {
		t.Error("ROV should drop at least some hijack routes at rate 5/day")
	}
}

// TestSurveyAtAllocs is SurveyAt's allocation budget at DefaultConfig,
// and SurveyInto's on a reused buffer. A survey on a fresh buffer
// allocates 24 times: the buffer's scratch slices and random source,
// the survey's records and monitor map, and the growth of its MOAS side
// array; under the race detector, which moves some values to the heap,
// 33, so the budget has a race allowance. Observing monitor by monitor
// took about 111, and through the survey's prefix map about 8.2k, so
// the budget fails if per-monitor or per-prefix allocations come back.
// Refilled for every quarter the utilization stage samples, after one
// pass to grow it, a buffer allocates nothing at all.
func TestSurveyAtAllocs(t *testing.T) {
	cfg := DefaultConfig()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rs := NewRoutingSim(w)
	day := cfg.RoutingDays - 1
	allocs := testing.AllocsPerRun(3, func() { rs.SurveyAt(day) })
	budget := 30
	if raceBuild() {
		budget += 10
	}
	t.Logf("SurveyAt: %.0f allocs (budget %d)", allocs, budget)
	if allocs > float64(budget) {
		t.Errorf("SurveyAt allocates %.0f times, budget %d", allocs, budget)
	}

	var days []int
	for d := 89; d < cfg.RoutingDays; d += 91 {
		days = append(days, d)
	}
	var buf SurveyBuffer
	refill := func() {
		for _, d := range days {
			rs.SurveyInto(&buf, d)
		}
	}
	refill()
	if allocs := testing.AllocsPerRun(3, refill); allocs != 0 {
		t.Errorf("SurveyInto on a reused buffer allocates %.0f times over %d days, want 0", allocs, len(days))
	}
}

// BenchmarkSurveyAt measures one day's origin survey across every
// monitor at DefaultConfig, the call the utilization and delegations
// build stages repeat.
func BenchmarkSurveyAt(b *testing.B) {
	cfg := DefaultConfig()
	w, err := Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	rs := NewRoutingSim(w)
	day := cfg.RoutingDays - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rs.SurveyAt(day).NumMonitors() == 0 {
			b.Fatal("empty survey")
		}
	}
}

// raceBuild reports whether the test binary was built with -race.
func raceBuild() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}
