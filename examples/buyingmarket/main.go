// Buying-market example (§3 of the paper): transfer volume per region,
// price evolution with the regional-difference test, inter-RIR flows, and
// the consolidation phase. Run with:
//
//	go run ./examples/buyingmarket
package main

import (
	"fmt"
	"log"
	"time"

	"ipv4market/internal/core"
	"ipv4market/internal/market"
	"ipv4market/internal/registry"
	"ipv4market/internal/simulation"
)

func main() {
	cfg := simulation.DefaultConfig()
	cfg.Seed = 3
	cfg.NumLIRs = 30
	cfg.RoutingDays = 30 // this example focuses on the market, not BGP

	study, err := core.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	w := study.World
	transfers := w.Registry.Transfers()

	fmt.Println("== Transfer volume (Figure 2) ==")
	counts := market.QuarterlyCounts(market.FilterMarketTransfers(w.Registry))
	for _, rir := range registry.AllRIRs() {
		total := 0
		for _, qc := range counts[rir] {
			total += qc.Count
		}
		open := registry.MilestonesOf(rir).DownToLastBlock
		fmt.Printf("%-9s market open since %s: %4d transfers\n", rir, open.Format("2006-01-02"), total)
	}

	fmt.Println("\n== Inter-RIR flows (Figure 3) ==")
	nf := market.NetFlow(transfers, time.Date(2012, 1, 1, 0, 0, 0, 0, time.UTC), cfg.MarketEnd)
	for _, rir := range []registry.RIR{registry.APNIC, registry.ARIN, registry.RIPENCC} {
		fmt.Printf("%-9s net inter-RIR flow: %+d addresses\n", rir, nf[rir])
	}
	sizes := market.MeanBlockSizeByYear(transfers)
	for _, y := range []int{2013, 2016, 2019} {
		if s, ok := sizes[y]; ok {
			fmt.Printf("mean inter-RIR block size in %d: %.0f addresses\n", y, s)
		}
	}

	fmt.Println("\n== Price evolution (Figure 1) ==")
	d := func(y, m int) time.Time { return time.Date(y, time.Month(m), 1, 0, 0, 0, 0, time.UTC) }
	for _, year := range []int{2016, 2017, 2018, 2019, 2020} {
		mean, err := market.MeanPrice(w.Prices, d(year, 1), d(year+1, 1))
		if err != nil {
			continue
		}
		fmt.Printf("%d: mean $%.2f per address\n", year, mean)
	}
	re, err := market.RegionEffect(w.Prices, d(2018, 1), d(2020, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("regional difference (Kruskal-Wallis): H = %.2f, p = %.3f -> %s\n",
		re.Statistic, re.PValue, verdict(re.Significant(0.05)))
	premium, test, err := market.SizeEffect(w.Prices, d(2019, 1), d(2020, 7))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("small-block premium (/24,/23 vs larger): %.2fx, p = %.4f -> %s\n",
		premium, test.PValue, verdict(test.Significant(0.05)))

	if cons, ok := market.DetectConsolidation(w.Prices, 0.01, 4); ok {
		fmt.Printf("consolidation phase since %s: median $%.2f, slope $%.3f/quarter\n",
			cons.Since, cons.MedianEnd, cons.SlopePerQ)
	}
}

func verdict(significant bool) string {
	if significant {
		return "significant"
	}
	return "not significant"
}
