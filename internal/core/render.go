package core

import (
	"fmt"
	"io"
	"math"
	"sort"
	"text/tabwriter"

	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// This file renders each experiment as the row/series text the paper's
// tables and figures report, for the cmd/ipv4market harness and
// EXPERIMENTS.md.

func newTab(w io.Writer) *tabwriter.Writer {
	return tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
}

// RenderTable1 prints the exhaustion timeline.
func (s *Study) RenderTable1(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "RIR\tDown to last /8\tDepleted\tPhase (2020-06)\tMax assignment\tWaiting list")
	for _, r := range s.Table1() {
		depleted := "-"
		if !r.Depleted.IsZero() {
			depleted = r.Depleted.Format("2006-01-02")
		}
		wl := "-"
		if r.WaitingList > 0 {
			wl = fmt.Sprintf("%d slots", r.WaitingList)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t/%d\t%s\n",
			r.RIR, r.DownToLastBlock.Format("2006-01-02"), depleted, r.Phase2020, r.MaxAssignment, wl)
	}
	return tw.Flush()
}

// RenderFigure1 prints the quarterly price box plots. To keep the output
// readable it aggregates prefix sizes into the paper's columns.
func (s *Study) RenderFigure1(w io.Writer) error {
	cells := s.Figure1()
	tw := newTab(w)
	fmt.Fprintln(tw, "Quarter\tPrefix\tRegion\tN\tQ1\tMedian\tQ3\tMean")
	for _, c := range cells {
		fmt.Fprintf(tw, "%s\t/%d\t%s\t%d\t$%.2f\t$%.2f\t$%.2f\t$%.2f\n",
			c.Quarter, c.Bits, c.Region, c.Box.N, c.Box.Q1, c.Box.Median, c.Box.Q3, c.Box.Mean)
	}
	return tw.Flush()
}

// RenderFigure2 prints quarterly transfer counts per region.
func (s *Study) RenderFigure2(w io.Writer) error {
	counts := s.Figure2()
	// Collect the union of quarters.
	qset := map[stats.Quarter]bool{}
	for _, series := range counts {
		for _, qc := range series {
			qset[qc.Quarter] = true
		}
	}
	qs := make([]stats.Quarter, 0, len(qset))
	for q := range qset {
		qs = append(qs, q)
	}
	stats.SortQuarters(qs)
	byRIR := map[registry.RIR]map[stats.Quarter]int{}
	for rir, series := range counts {
		m := map[stats.Quarter]int{}
		for _, qc := range series {
			m[qc.Quarter] = qc.Count
		}
		byRIR[rir] = m
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Quarter\tAFRINIC\tAPNIC\tARIN\tLACNIC\tRIPE NCC")
	for _, q := range qs {
		fmt.Fprintf(tw, "%s", q)
		for _, rir := range registry.AllRIRs() {
			fmt.Fprintf(tw, "\t%d", byRIR[rir][q])
		}
		fmt.Fprintln(tw)
	}
	return tw.Flush()
}

// RenderFigure3 prints the inter-RIR transfer flows.
func (s *Study) RenderFigure3(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Year\tFrom\tTo\tTransfers\tAddresses")
	for _, f := range s.Figure3() {
		fmt.Fprintf(tw, "%d\t%s\t%s\t%d\t%d\n", f.Year, f.From, f.To, f.Count, f.Addresses)
	}
	return tw.Flush()
}

// RenderFigure4 prints the advertised leasing prices at the window's
// first and last observation plus any price changes.
func (s *Study) RenderFigure4(w io.Writer) error {
	points := s.Figure4()
	// Group by provider; show first and last price.
	type span struct {
		bundled     bool
		first, last float64
	}
	spans := map[string]*span{}
	var order []string
	for _, p := range points {
		sp := spans[p.Provider]
		if sp == nil {
			sp = &span{bundled: p.Bundled, first: p.Price}
			spans[p.Provider] = sp
			order = append(order, p.Provider)
		}
		sp.last = p.Price
	}
	sort.Strings(order)
	tw := newTab(w)
	fmt.Fprintln(tw, "Provider\tModel\tFirst obs. $/IP/mo\tFinal $/IP/mo")
	for _, name := range order {
		sp := spans[name]
		model := "pure leasing"
		if sp.bundled {
			model = "bundled hosting"
		}
		fmt.Fprintf(tw, "%s\t%s\t$%.2f\t$%.2f\n", name, model, sp.first, sp.last)
	}
	return tw.Flush()
}

// RenderFigure5 prints the consistency-rule fail-rate grid.
func (s *Study) RenderFigure5(w io.Writer, ms, ns []int) error {
	grid, err := s.Figure5(ms, ns)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "N\tM\tPremises\tFailures\tFail rate")
	for _, r := range grid {
		fmt.Fprintf(tw, "%d\t%d\t%d\t%d\t%.4f\n", r.N, r.M, r.Premises, r.Failures, r.FailRate())
	}
	return tw.Flush()
}

// RenderFigure6Workers prints the delegation time series and the
// summary stats, running the per-date inference on the given number of
// workers (<= 0: NumCPU). Output is identical at any worker count.
func (s *Study) RenderFigure6Workers(w io.Writer, sampleEvery, workers int) error {
	res, err := s.Figure6Workers(sampleEvery, workers)
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Date\tBaseline #deleg\tBaseline IPs\tExtended #deleg\tExtended IPs")
	for _, p := range res.Points {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d\n",
			p.Date.Format("2006-01-02"), p.BaselineCount, p.BaselineIPs, p.ExtendedCount, p.ExtendedIPs)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nextended delegation growth over window: %.2fx (paper: ~1.07x)\n", res.GrowthExtended)
	fmt.Fprintf(w, "/24 share: %.1f%% -> %.1f%% (paper: ~66%% -> ~72%%)\n", 100*res.Share24First, 100*res.Share24Last)
	fmt.Fprintf(w, "/20 share: %.1f%% -> %.1f%% (paper: ~7%% -> ~3%%)\n", 100*res.Share20First, 100*res.Share20Last)
	return nil
}

// RenderCoverage prints the §4 BGP-vs-RDAP comparison.
func (s *Study) RenderCoverage(w io.Writer) error {
	res, err := s.Coverage()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "RDAP delegations: %d (%d IPs); queries: %d, skipped < /24: %d, intra-org removed: %d\n",
		res.RDAPDelegations, res.RDAPIPs, res.RDAPQueries, res.RDAPSkippedSmall, res.RDAPIntraOrg)
	fmt.Fprintf(w, "BGP delegations:  %d (%d IPs)\n", res.BGPDelegations, res.BGPIPs)
	fmt.Fprintf(w, "BGP covers %.2f%% of RDAP-delegated IPs (paper: ~1.85%%)\n", 100*res.BGPCoverOfRDAP)
	fmt.Fprintf(w, "RDAP covers %.1f%% of BGP-delegated IPs (paper: ~65.7%%)\n", 100*res.RDAPCoverOfBGP)
	return nil
}

// RenderCensus prints the §4 WHOIS input-space statistics.
func (s *Study) RenderCensus(w io.Writer) error {
	c := s.Census()
	fmt.Fprintf(w, "inetnum objects: %d\n", c.Total)
	fmt.Fprintf(w, "SUB-ALLOCATED PA: %d (paper: ~4.5k)\n", c.SubAllocatedBlocks)
	fmt.Fprintf(w, "ASSIGNED PA: %d, of which < /24: %d (%.1f%%; paper: 91.4%%)\n",
		c.ByStatus["ASSIGNED PA"], c.AssignedPASub24, 100*c.FracAssignedSub24)
	return nil
}

// RenderHeadline prints the §3 summary statistics.
func (s *Study) RenderHeadline(w io.Writer) error {
	h, err := s.Headline()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "priced transactions: %d (paper: 2.9k)\n", h.PricedRecords)
	fmt.Fprintf(w, "mean 2020 price: $%.2f per address, 95%% CI [$%.2f, $%.2f] (paper: ~$22.50 \"with little variance\")\n",
		h.MeanPrice2020, h.MeanPriceCI.Lo, h.MeanPriceCI.Hi)
	fmt.Fprintf(w, "growth since 2016: %.2fx (paper: ~2x)\n", h.GrowthFactor)
	fmt.Fprintf(w, "regional difference: p = %.3f -> significant: %v (paper: not significant)\n",
		h.RegionTest.PValue, h.RegionDiffers)
	fmt.Fprintf(w, "small-block (/24,/23) premium: %.2fx\n", h.SizePremium)
	if h.Consolidated {
		fmt.Fprintf(w, "consolidation since %s at $%.2f (paper: Spring 2019)\n",
			h.Consolidation.Since, h.Consolidation.MedianEnd)
	} else {
		fmt.Fprintln(w, "no consolidation phase detected")
	}
	return nil
}

// RenderAmortization prints the §6 buy-vs-lease grid.
func (s *Study) RenderAmortization(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "Lease $/IP/mo\tAmortization (months)\tAmortization (years)")
	for _, row := range s.AmortizationTable() {
		if !row.Amortizes || math.IsInf(row.Months, 1) {
			fmt.Fprintf(tw, "$%.2f\tnever\tnever\n", row.LeasePerAddrMonth)
			continue
		}
		fmt.Fprintf(tw, "$%.2f\t%.0f\t%.1f\n", row.LeasePerAddrMonth, row.Months, row.Years)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: amortization ranges from ~10 months to ~36 years; brokers report 2-3 years typical")
	return nil
}

// RenderWaitingLists prints the §2 waiting-list regimes.
func (s *Study) RenderWaitingLists(w io.Writer) error {
	tw := newTab(w)
	fmt.Fprintln(tw, "RIR\tRequests\tFulfilled\tPending\tMax wait\tMean wait\tPool left")
	for _, o := range s.WaitingLists() {
		fmt.Fprintf(tw, "%s\t%d\t%d\t%d\t%d days\t%.0f days\t%d addrs\n",
			o.Scenario.RIR, o.Requests, o.Fulfilled, o.Pending, o.MaxWaitDays, o.MeanWait, o.PoolLeft)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(w, "\npaper: ARIN waits up to 130+ days; RIPE cleared its list from recovered space, ~340k addresses banked")
	return nil
}

// RenderReputation prints the §2 reputation-ecosystem statistics.
func (s *Study) RenderReputation(w io.Writer) error {
	r := s.Reputation()
	fmt.Fprintf(w, "blacklist listings: %d\n", r.Listings)
	fmt.Fprintf(w, "leased blocks at window end: %d listed, %d tainted, %d clean\n",
		r.LeasesListed, r.LeasesTainted, r.LeasesClean)
	fmt.Fprintf(w, "provider blocks with abused children: %d; shielded by WHOIS registration: %d (%.0f%%)\n",
		r.ParentsAtRisk, r.ParentsShielded, shieldPct(r))
	fmt.Fprintf(w, "mean buyer price factor across leased blocks: %.2f (clean = 1.00)\n", r.MeanPriceFactor)
	fmt.Fprintln(w, "paper (§2): tainted blocks are hard to clean; providers install registry records to protect their remaining space")
	return nil
}

func shieldPct(r ReputationStats) float64 {
	if r.ParentsAtRisk == 0 {
		return 0
	}
	return 100 * float64(r.ParentsShielded) / float64(r.ParentsAtRisk)
}

// RenderMergers prints the merger-heuristic evaluation.
func (s *Study) RenderMergers(w io.Writer) error {
	ev := s.Mergers()
	fmt.Fprintf(w, "unlabeled-region transfers (APNIC+LACNIC): %d, of which true M&A: %d\n", ev.Transfers, ev.TrueMergers)
	fmt.Fprintf(w, "heuristic flags: %d; true positives: %d\n", ev.Flagged, ev.TruePositives)
	fmt.Fprintf(w, "precision: %.2f, recall: %.2f\n", ev.Precision, ev.Recall)
	fmt.Fprintln(w, "paper (§3): declined the heuristic for lack of evaluation — the simulator's ground truth provides one")
	return nil
}

// RenderCombined prints the three-source market estimate.
func (s *Study) RenderCombined(w io.Writer) error {
	est, err := s.Combined()
	if err != nil {
		return err
	}
	tw := newTab(w)
	fmt.Fprintln(tw, "Source\tDelegated IPs\tRecall of true market")
	fmt.Fprintf(tw, "BGP (usage)\t%d\t%.1f%%\n", est.BGPIPs, 100*est.BGPRecall)
	fmt.Fprintf(tw, "RDAP (administration)\t%d\t%.1f%%\n", est.RDAPIPs, 100*est.RDAPRecall)
	fmt.Fprintf(tw, "RPKI (authorization)\t%d\t%.1f%%\n", est.RPKIIPs, 100*est.RPKIRecall)
	fmt.Fprintf(tw, "union\t%d\t%.1f%%\n", est.UnionIPs, 100*est.UnionRecall)
	if err := tw.Flush(); err != nil {
		return err
	}
	fmt.Fprintf(w, "\nground-truth leased addresses: %d\n", est.TruthIPs)
	fmt.Fprintln(w, "paper (§7): no single source captures the leasing market; combining them is essential")
	return nil
}
