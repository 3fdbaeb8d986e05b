package core

import (
	"bytes"
	"encoding/csv"
	"io"
	"strings"
	"testing"
	"time"

	"ipv4market/internal/registry"
	"ipv4market/internal/simulation"
)

func testStudy(t testing.TB) *Study {
	t.Helper()
	cfg := simulation.DefaultConfig()
	cfg.NumLIRs = 18
	cfg.RoutingDays = 80
	cfg.AdministrativeLeases = 150
	cfg.RoutedLeases = 60
	cfg.MonitorsPerCollector = 4
	cfg.SmallAssignmentsPerLIR = 12
	s, err := NewStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTable1MatchesPaper(t *testing.T) {
	s := testStudy(t)
	rows := s.Table1()
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byRIR := map[registry.RIR]Table1Row{}
	for _, r := range rows {
		byRIR[r.RIR] = r
	}
	ripe := byRIR[registry.RIPENCC]
	if !ripe.Depleted.Equal(time.Date(2019, 11, 25, 0, 0, 0, 0, time.UTC)) {
		t.Errorf("RIPE depletion = %v", ripe.Depleted)
	}
	if ripe.MaxAssignment != 24 || byRIR[registry.APNIC].MaxAssignment != 23 || byRIR[registry.ARIN].MaxAssignment != 22 {
		t.Error("2020 max assignments diverge from paper")
	}
	if byRIR[registry.ARIN].WaitingList != 202 || byRIR[registry.LACNIC].WaitingList != 275 {
		t.Error("waiting-list capacities diverge from paper")
	}
}

func TestFigureDataShapes(t *testing.T) {
	s := testStudy(t)

	if cells := s.Figure1(); len(cells) == 0 {
		t.Error("Figure1 empty")
	}
	f2 := s.Figure2()
	if len(f2[registry.ARIN]) == 0 {
		t.Error("Figure2 has no ARIN series")
	}
	if flows := s.Figure3(); len(flows) == 0 {
		t.Error("Figure3 empty")
	}
	f4 := s.Figure4()
	if len(f4) == 0 {
		t.Error("Figure4 empty")
	}
	// Second-wave providers must only appear from June 2020.
	for _, p := range f4 {
		if p.Provider == "AnyIP" && p.Date.Before(time.Date(2020, 6, 1, 0, 0, 0, 0, time.UTC)) {
			t.Errorf("second-wave provider observed early: %+v", p)
		}
	}

	grid, err := s.Figure5([]int{2, 10, 30}, []int{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 9 {
		t.Errorf("Figure5 grid = %d", len(grid))
	}
	// Fail rate must not increase with N at fixed M.
	for _, m := range []int{2, 10, 30} {
		var prev float64 = -1
		for _, n := range []int{0, 1, 3} {
			for _, r := range grid {
				if r.M == m && r.N == n {
					if prev >= 0 && r.FailRate() > prev+1e-9 {
						t.Errorf("fail rate increased with N at M=%d", m)
					}
					prev = r.FailRate()
				}
			}
		}
	}
}

func TestFigure6Shape(t *testing.T) {
	s := testStudy(t)
	res, err := s.Figure6(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != s.Cfg.RoutingDays/5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	// Extended must never exceed baseline on any sampled day before gap
	// filling; after gap filling small excursions are possible, so check
	// the weaker invariant that both series are populated and baseline
	// carries hijack noise (count ≥ extended on average).
	var baseSum, extSum int
	for _, p := range res.Points {
		if p.BaselineCount == 0 || p.ExtendedCount == 0 {
			t.Fatalf("empty day: %+v", p)
		}
		baseSum += p.BaselineCount
		extSum += p.ExtendedCount
	}
	if baseSum < extSum {
		t.Errorf("baseline (%d) should carry more noise than extended (%d)", baseSum, extSum)
	}
	// The baseline's extra inferences (hijacks, MOAS combinations) put it
	// at or above the extended series on nearly every sampled day; the
	// extensions only remove. Gap filling can lift isolated extended days
	// above the baseline, so require dominance on a large majority.
	dominated := 0
	for _, p := range res.Points {
		if p.BaselineCount >= p.ExtendedCount {
			dominated++
		}
	}
	if frac := float64(dominated) / float64(len(res.Points)); frac < 0.7 {
		t.Errorf("baseline ≥ extended on only %.0f%% of days", 100*frac)
	}
	if _, err := s.Figure6(0); err == nil {
		t.Error("sampleEvery=0 must fail")
	}
}

func TestCoverageShape(t *testing.T) {
	s := testStudy(t)
	res, err := s.Coverage()
	if err != nil {
		t.Fatal(err)
	}
	if res.RDAPDelegations == 0 || res.BGPDelegations == 0 {
		t.Fatalf("coverage = %+v", res)
	}
	// The paper's central observation: the RDAP view is far larger in
	// addresses than the BGP view.
	if res.BGPCoverOfRDAP > 0.15 {
		t.Errorf("BGP covers %.1f%% of RDAP IPs; expected a small fraction", 100*res.BGPCoverOfRDAP)
	}
	// And RDAP covers a majority-but-not-all of BGP-delegated IPs.
	if res.RDAPCoverOfBGP < 0.35 || res.RDAPCoverOfBGP > 0.95 {
		t.Errorf("RDAP covers %.1f%% of BGP IPs; expected roughly two thirds", 100*res.RDAPCoverOfBGP)
	}
	if res.RDAPSkippedSmall == 0 {
		t.Error("sub-/24 blocks should be skipped")
	}
}

func TestCensusShape(t *testing.T) {
	s := testStudy(t)
	c := s.Census()
	if c.FracAssignedSub24 < 0.5 {
		t.Errorf("FracAssignedSub24 = %v", c.FracAssignedSub24)
	}
	if c.SubAllocatedBlocks == 0 {
		t.Error("no SUB-ALLOCATED PA blocks")
	}
}

func TestHeadlineShape(t *testing.T) {
	s := testStudy(t)
	h, err := s.Headline()
	if err != nil {
		t.Fatal(err)
	}
	if h.MeanPrice2020 < 20 || h.MeanPrice2020 > 26 {
		t.Errorf("mean 2020 price = %v", h.MeanPrice2020)
	}
	if h.GrowthFactor < 1.6 || h.GrowthFactor > 2.6 {
		t.Errorf("growth = %v", h.GrowthFactor)
	}
	if h.RegionDiffers {
		t.Error("regions should not differ")
	}
	if !h.Consolidated {
		t.Error("consolidation should be detected")
	}
	if h.SizePremium <= 1.0 {
		t.Errorf("size premium = %v, expected small-block premium", h.SizePremium)
	}
}

func TestAmortizationTable(t *testing.T) {
	s := testStudy(t)
	rows := s.AmortizationTable()
	if len(rows) == 0 {
		t.Fatal("empty table")
	}
	// Fastest rate ≈ 10 months; the slowest that amortizes measures in
	// decades.
	last := rows[len(rows)-1]
	if !last.Amortizes || last.Months < 8 || last.Months > 12 {
		t.Errorf("fast amortization = %+v", last)
	}
	first := rows[0]
	if first.Amortizes && first.Years < 10 {
		t.Errorf("slow amortization = %+v", first)
	}
}

func TestRenderAll(t *testing.T) {
	s := testStudy(t)
	checks := []struct {
		name   string
		render func(*bytes.Buffer) error
		want   string
	}{
		{"table1", func(b *bytes.Buffer) error { return s.RenderTable1(b) }, "RIPE NCC"},
		{"fig1", func(b *bytes.Buffer) error { return s.RenderFigure1(b) }, "Median"},
		{"fig2", func(b *bytes.Buffer) error { return s.RenderFigure2(b) }, "Quarter"},
		{"fig3", func(b *bytes.Buffer) error { return s.RenderFigure3(b) }, "ARIN"},
		{"fig4", func(b *bytes.Buffer) error { return s.RenderFigure4(b) }, "Heficed"},
		{"fig5", func(b *bytes.Buffer) error { return s.RenderFigure5(b, []int{2, 10}, []int{0, 3}) }, "Fail rate"},
		{"fig6", func(b *bytes.Buffer) error { return s.RenderFigure6Workers(b, 10, 0) }, "Extended"},
		{"coverage", func(b *bytes.Buffer) error { return s.RenderCoverage(b) }, "BGP covers"},
		{"census", func(b *bytes.Buffer) error { return s.RenderCensus(b) }, "ASSIGNED PA"},
		{"headline", func(b *bytes.Buffer) error { return s.RenderHeadline(b) }, "mean 2020 price"},
		{"amortization", func(b *bytes.Buffer) error { return s.RenderAmortization(b) }, "Amortization"},
	}
	for _, c := range checks {
		var buf bytes.Buffer
		if err := c.render(&buf); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if !strings.Contains(buf.String(), c.want) {
			t.Errorf("%s output missing %q:\n%s", c.name, c.want, buf.String())
		}
	}
}

func TestWaitingLists(t *testing.T) {
	s := testStudy(t)
	outs := s.WaitingLists()
	if len(outs) != 2 {
		t.Fatalf("outcomes = %d", len(outs))
	}
	arin, ripe := outs[0], outs[1]
	if arin.Scenario.RIR != registry.ARIN || ripe.Scenario.RIR != registry.RIPENCC {
		t.Fatal("scenario order")
	}
	// §2: ARIN waits of up to 130+ days with a persistent queue; RIPE
	// clears its list instantly from banked recovered space.
	if arin.MaxWaitDays < 60 || arin.Pending == 0 {
		t.Errorf("ARIN outcome = %+v", arin)
	}
	if float64(ripe.Fulfilled)/float64(ripe.Requests) < 0.9 || ripe.PoolLeft == 0 {
		t.Errorf("RIPE outcome = %+v", ripe)
	}
	// RIPE's remaining pool is in the paper's ~340k ballpark.
	if ripe.PoolLeft < 150_000 || ripe.PoolLeft > 600_000 {
		t.Errorf("RIPE pool left = %d, want ≈340k", ripe.PoolLeft)
	}
}

func TestReputationStats(t *testing.T) {
	s := testStudy(t)
	r := s.Reputation()
	if r.Listings == 0 {
		t.Fatal("no listings simulated")
	}
	if r.LeasesListed+r.LeasesTainted == 0 {
		t.Error("some leased blocks must be listed or tainted")
	}
	if r.LeasesClean == 0 {
		t.Error("most leased blocks should stay clean")
	}
	if r.LeasesClean < r.LeasesListed+r.LeasesTainted {
		t.Error("clean blocks should dominate")
	}
	// The SWIP shield must protect a majority of providers whose leased
	// children were abused (most leases are WHOIS-registered).
	if r.ParentsAtRisk == 0 {
		t.Fatal("no at-risk parents")
	}
	if frac := float64(r.ParentsShielded) / float64(r.ParentsAtRisk); frac < 0.5 {
		t.Errorf("shield efficacy = %.2f, want majority", frac)
	}
	if r.MeanPriceFactor <= 0.5 || r.MeanPriceFactor > 1.0 {
		t.Errorf("mean price factor = %v", r.MeanPriceFactor)
	}
}

func TestRenderWaitingListsAndReputation(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := s.RenderWaitingLists(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Max wait") {
		t.Errorf("waiting-list render:\n%s", buf.String())
	}
	buf.Reset()
	if err := s.RenderReputation(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SWIP") && !strings.Contains(buf.String(), "shielded") {
		t.Errorf("reputation render:\n%s", buf.String())
	}
}

func TestMergersEvaluation(t *testing.T) {
	s := testStudy(t)
	ev := s.Mergers()
	if ev.Transfers == 0 || ev.TrueMergers == 0 {
		t.Fatalf("eval = %+v", ev)
	}
	// Multi-block consolidations make the heuristic precise and sensitive.
	if ev.Precision < 0.8 {
		t.Errorf("precision = %.2f", ev.Precision)
	}
	if ev.Recall < 0.5 {
		t.Errorf("recall = %.2f", ev.Recall)
	}
}

func TestCombinedEstimate(t *testing.T) {
	s := testStudy(t)
	est, err := s.Combined()
	if err != nil {
		t.Fatal(err)
	}
	if est.TruthIPs == 0 {
		t.Fatal("no ground-truth market")
	}
	// §7: no single source captures the market; the union beats each.
	if est.UnionRecall < est.BGPRecall || est.UnionRecall < est.RDAPRecall || est.UnionRecall < est.RPKIRecall {
		t.Errorf("union must dominate: %+v", est)
	}
	if est.UnionRecall < 0.9 {
		t.Errorf("union recall = %.2f", est.UnionRecall)
	}
	if est.BGPRecall >= est.RDAPRecall {
		t.Errorf("BGP (%.2f) should see far less than RDAP (%.2f) by addresses", est.BGPRecall, est.RDAPRecall)
	}
	// RPKI gives an order of magnitude fewer delegated IPs than RDAP.
	if est.RPKIIPs >= est.RDAPIPs {
		t.Errorf("RPKI IPs (%d) should be far below RDAP (%d)", est.RPKIIPs, est.RDAPIPs)
	}
}

func TestRenderMergersAndCombined(t *testing.T) {
	s := testStudy(t)
	var buf bytes.Buffer
	if err := s.RenderMergers(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "precision") {
		t.Errorf("mergers render:\n%s", buf.String())
	}
	buf.Reset()
	if err := s.RenderCombined(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "union") {
		t.Errorf("combined render:\n%s", buf.String())
	}
}

func TestExportCSV(t *testing.T) {
	s := testStudy(t)
	files := map[string]*bytes.Buffer{}
	names, err := s.ExportCSV(10, func(name string) (io.WriteCloser, error) {
		buf := &bytes.Buffer{}
		files[name] = buf
		return nopCloser{buf}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 {
		t.Fatalf("names = %v", names)
	}
	for name, buf := range files {
		r := csv.NewReader(bytes.NewReader(buf.Bytes()))
		rows, err := r.ReadAll()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(rows) < 2 {
			t.Errorf("%s: only %d rows", name, len(rows))
		}
	}
	// Figure 1 is restricted to the paper's pricing window.
	for _, c := range s.Figure1() {
		if c.Quarter.Year < 2016 {
			t.Errorf("Figure1 contains pre-2016 cell %v", c.Quarter)
		}
	}
}

type nopCloser struct{ io.Writer }

func (nopCloser) Close() error { return nil }
