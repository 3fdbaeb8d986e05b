package market

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

func date(y, m, d int) time.Time {
	return time.Date(y, time.Month(m), d, 0, 0, 0, 0, time.UTC)
}

func pfx(s string) netblock.Prefix { return netblock.MustParsePrefix(s) }

func tr(from, to registry.RIR, typ registry.TransferType, p string, d time.Time) registry.Transfer {
	return registry.Transfer{
		Prefix: pfx(p), From: "s", To: "b",
		FromRIR: from, ToRIR: to, Type: typ, Date: d,
	}
}

func TestFilterMarketTransfers(t *testing.T) {
	in := []registry.Transfer{
		tr(registry.RIPENCC, registry.RIPENCC, registry.TypeMarket, "185.0.0.0/24", date(2020, 1, 1)),
		tr(registry.RIPENCC, registry.RIPENCC, registry.TypeMerger, "185.0.1.0/24", date(2020, 1, 2)),
		tr(registry.APNIC, registry.APNIC, registry.TypeMerger, "103.0.0.0/24", date(2020, 1, 3)),
	}
	out := FilterMarketTransfers(Transfers(in))
	// RIPE labels M&A → removed; APNIC does not → kept.
	if len(out) != 2 {
		t.Fatalf("filtered = %v", out)
	}
	for _, x := range out {
		if x.FromRIR == registry.RIPENCC && x.Type == registry.TypeMerger {
			t.Error("labeled M&A survived the filter")
		}
	}
}

func TestQuarterlyCounts(t *testing.T) {
	in := []registry.Transfer{
		tr(registry.RIPENCC, registry.RIPENCC, registry.TypeMarket, "185.0.0.0/24", date(2020, 1, 10)),
		tr(registry.RIPENCC, registry.RIPENCC, registry.TypeMarket, "185.0.1.0/24", date(2020, 2, 10)),
		tr(registry.RIPENCC, registry.RIPENCC, registry.TypeMarket, "185.0.2.0/24", date(2020, 5, 10)),
		tr(registry.ARIN, registry.RIPENCC, registry.TypeMarket, "23.0.0.0/24", date(2020, 1, 15)), // inter-RIR: excluded
	}
	got := QuarterlyCounts(Transfers(in))
	ripe := got[registry.RIPENCC]
	if len(ripe) != 2 {
		t.Fatalf("ripe series = %v", ripe)
	}
	if ripe[0].Quarter != (stats.Quarter{Year: 2020, Q: 1}) || ripe[0].Count != 2 {
		t.Errorf("ripe[0] = %+v", ripe[0])
	}
	if ripe[1].Quarter != (stats.Quarter{Year: 2020, Q: 2}) || ripe[1].Count != 1 {
		t.Errorf("ripe[1] = %+v", ripe[1])
	}
	if _, ok := got[registry.ARIN]; ok {
		t.Error("inter-RIR transfer should not appear in Figure 2 counts")
	}
}

func TestInterRIRFlowsAndNetFlow(t *testing.T) {
	in := []registry.Transfer{
		tr(registry.ARIN, registry.RIPENCC, registry.TypeMarket, "23.0.0.0/16", date(2019, 3, 1)),
		tr(registry.ARIN, registry.APNIC, registry.TypeMarket, "23.1.0.0/20", date(2019, 6, 1)),
		tr(registry.ARIN, registry.RIPENCC, registry.TypeMarket, "23.2.0.0/22", date(2020, 2, 1)),
		tr(registry.RIPENCC, registry.RIPENCC, registry.TypeMarket, "185.0.0.0/24", date(2019, 4, 1)), // intra: excluded
	}
	flows := InterRIRFlows(Transfers(in))
	if len(flows) != 3 {
		t.Fatalf("flows = %v", flows)
	}
	if flows[0].Year != 2019 || flows[0].From != registry.ARIN || flows[0].To != registry.APNIC {
		t.Errorf("flows[0] = %+v (sorted by year, from, to)", flows[0])
	}
	nf := NetFlow(in, date(2019, 1, 1), date(2021, 1, 1))
	wantARIN := -int64(1<<16 + 1<<12 + 1<<10)
	if nf[registry.ARIN] != wantARIN {
		t.Errorf("ARIN net flow = %d, want %d", nf[registry.ARIN], wantARIN)
	}
	if nf[registry.RIPENCC] != int64(1<<16+1<<10) {
		t.Errorf("RIPE net flow = %d", nf[registry.RIPENCC])
	}
	mbs := MeanBlockSizeByYear(in)
	if mbs[2019] != float64(1<<16+1<<12)/2 {
		t.Errorf("2019 mean block = %v", mbs[2019])
	}
	if mbs[2020] != 1<<10 {
		t.Errorf("2020 mean block = %v", mbs[2020])
	}
}

func genPrices(rng *rand.Rand) []PriceRecord {
	// Synthetic price trajectory: $10 in 2016 doubling to ~$22 by 2019,
	// flat afterwards; same distribution across regions.
	var recs []PriceRecord
	regions := []registry.RIR{registry.APNIC, registry.ARIN, registry.RIPENCC}
	for day := date(2016, 1, 1); day.Before(date(2020, 7, 1)); day = day.AddDate(0, 0, 3) {
		years := day.Sub(date(2016, 1, 1)).Hours() / 24 / 365
		level := 10 * math.Pow(2, math.Min(years/3.2, 1)) // doubles over ~3.2y then flat
		for i := 0; i < 2; i++ {
			recs = append(recs, PriceRecord{
				Date:         day,
				Region:       regions[rng.Intn(len(regions))],
				Bits:         17 + rng.Intn(8),
				PricePerAddr: level * (0.9 + 0.2*rng.Float64()),
			})
		}
	}
	return recs
}

func TestPriceBoxesGrouping(t *testing.T) {
	recs := []PriceRecord{
		{Date: date(2020, 1, 5), Region: registry.ARIN, Bits: 24, PricePerAddr: 20},
		{Date: date(2020, 2, 5), Region: registry.ARIN, Bits: 24, PricePerAddr: 24},
		{Date: date(2020, 1, 5), Region: registry.RIPENCC, Bits: 24, PricePerAddr: 22},
		{Date: date(2020, 4, 5), Region: registry.ARIN, Bits: 24, PricePerAddr: 30},
	}
	cells := PriceBoxes(recs)
	if len(cells) != 3 {
		t.Fatalf("cells = %+v", cells)
	}
	// First cell: 2020Q1 ARIN /24 with 2 samples.
	c := cells[0]
	if c.Quarter != (stats.Quarter{Year: 2020, Q: 1}) || c.Region != registry.ARIN || c.Box.N != 2 {
		t.Errorf("cells[0] = %+v", c)
	}
	if c.Box.Median != 22 {
		t.Errorf("median = %v", c.Box.Median)
	}
}

func TestHeadlinePriceStats(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	recs := genPrices(rng)

	// Doubling since 2016.
	factor, err := GrowthFactor(recs,
		date(2016, 1, 1), date(2016, 7, 1),
		date(2020, 1, 1), date(2020, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if factor < 1.8 || factor > 2.2 {
		t.Errorf("growth factor = %v, want ≈2", factor)
	}

	// No region effect.
	re, err := RegionEffect(recs, date(2019, 1, 1), date(2020, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if re.Significant(0.01) {
		t.Errorf("regions should not differ: p = %v", re.PValue)
	}
	pw, err := PairwiseRegionEffect(recs, registry.ARIN, registry.RIPENCC, date(2019, 1, 1), date(2020, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pw.Significant(0.01) {
		t.Errorf("pairwise regions should not differ: p = %v", pw.PValue)
	}

	// Consolidation detected somewhere in 2019 (level flattens then).
	cons, ok := DetectConsolidation(recs, 0.02, 4)
	if !ok {
		t.Fatal("no consolidation detected")
	}
	if cons.Since.Year < 2018 || cons.Since.Year > 2020 {
		t.Errorf("consolidation since %v", cons.Since)
	}
	if cons.MedianEnd < 15 {
		t.Errorf("end level = %v", cons.MedianEnd)
	}

	if _, err := MeanPrice(recs, date(2010, 1, 1), date(2011, 1, 1)); err != ErrNoRecords {
		t.Errorf("empty window err = %v", err)
	}
	med, err := MedianPrice(recs, date(2020, 1, 1), date(2020, 7, 1))
	if err != nil || med < 15 || med > 30 {
		t.Errorf("median 2020 = %v, %v", med, err)
	}
}

func TestSizeEffect(t *testing.T) {
	var recs []PriceRecord
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		// Small blocks cost ~25, large ~20.
		recs = append(recs, PriceRecord{
			Date: date(2020, 1, 1+i%150), Region: registry.ARIN, Bits: 24,
			PricePerAddr: 25 + rng.NormFloat64(),
		})
		recs = append(recs, PriceRecord{
			Date: date(2020, 1, 1+i%150), Region: registry.ARIN, Bits: 18,
			PricePerAddr: 20 + rng.NormFloat64(),
		})
	}
	premium, test, err := SizeEffect(recs, date(2020, 1, 1), date(2020, 7, 1))
	if err != nil {
		t.Fatal(err)
	}
	if premium < 1.15 || premium > 1.35 {
		t.Errorf("premium = %v", premium)
	}
	if !test.Significant(0.001) {
		t.Errorf("size effect should be significant: p = %v", test.PValue)
	}
}

func TestQuarterlyMedians(t *testing.T) {
	recs := []PriceRecord{
		{Date: date(2020, 1, 5), PricePerAddr: 10},
		{Date: date(2020, 2, 5), PricePerAddr: 20},
		{Date: date(2020, 5, 5), PricePerAddr: 30},
	}
	med := QuarterlyMedians(recs)
	if len(med) != 2 || med[0].Median != 15 || med[0].N != 2 || med[1].Median != 30 {
		t.Errorf("medians = %+v", med)
	}
}

func TestLeasingPriceBook(t *testing.T) {
	providers := PaperProviders()
	if len(providers) != 21 {
		t.Fatalf("providers = %d, want 21", len(providers))
	}

	// Snapshot on 2019-11-01: only the 12 first-wave providers.
	early, err := SnapshotAt(providers, date(2019, 11, 1))
	if err != nil {
		t.Fatal(err)
	}
	if early.Providers != 12 {
		t.Errorf("early providers = %d", early.Providers)
	}

	// Snapshot on 2020-06-01: all 21; range $0.30-$2.33 (§4).
	final, err := SnapshotAt(providers, date(2020, 6, 1))
	if err != nil {
		t.Fatal(err)
	}
	if final.Providers != 21 {
		t.Errorf("final providers = %d", final.Providers)
	}
	if final.Min != 0.30 || final.Max != 2.33 {
		t.Errorf("range = $%.2f-$%.2f, want $0.30-$2.33", final.Min, final.Max)
	}
	// No structural difference between pure and bundled (within 2x).
	ratio := final.PureMean / final.BundledMean
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("pure/bundled ratio = %v", ratio)
	}

	// Exactly three providers changed prices; IP-AS peaked at $3.90.
	changed := ChangedProviders(providers)
	if len(changed) != 3 {
		t.Fatalf("changed = %v", changed)
	}
	want := map[string]bool{"Heficed": true, "IP-AS": true, "IPv4Mall": true}
	for _, n := range changed {
		if !want[n] {
			t.Errorf("unexpected changer %q", n)
		}
	}
	changes := PriceChanges(providers)
	var sawSpike bool
	for _, c := range changes {
		if c.Provider == "IP-AS" && c.To == 3.90 {
			sawSpike = true
		}
	}
	if !sawSpike {
		t.Error("IP-AS January $3.90 spike missing")
	}

	// January snapshot max must reflect the spike: >10x the minimum.
	jan, err := SnapshotAt(providers, date(2020, 1, 15))
	if err != nil {
		t.Fatal(err)
	}
	if jan.Max/jan.Min <= 10 {
		t.Errorf("January spike factor = %v, want > 10", jan.Max/jan.Min)
	}

	// Before observation: no prices.
	if _, err := SnapshotAt(providers, date(2019, 1, 1)); err != ErrNoPrices {
		t.Errorf("pre-observation err = %v", err)
	}
	// PriceAt before window.
	if _, ok := providers[0].PriceAt(date(2019, 1, 1)); ok {
		t.Error("PriceAt before observation should be false")
	}
}

func TestAmortization(t *testing.T) {
	// §6/§7: $22.50 per address, leasing $0.30-$2.33 → amortization from
	// under a year to multiple tens of years.
	fast := Amortization{BuyPricePerAddr: 22.5, BrokerCommission: 0.05, LeasePerAddrMonth: 2.33}
	m, err := fast.Months()
	if err != nil {
		t.Fatal(err)
	}
	if m < 9 || m > 11 {
		t.Errorf("fast amortization = %v months", m)
	}
	slow := Amortization{
		BuyPricePerAddr: 22.5, BrokerCommission: 0.05,
		MaintenancePerAddrYear: 3.0, // $0.25/month holding cost
		LeasePerAddrMonth:      0.30,
	}
	y, err := slow.Years()
	if err != nil {
		t.Fatal(err)
	}
	if y < 30 || y > 45 {
		t.Errorf("slow amortization = %v years (paper: up to 36)", y)
	}

	// Never amortizes: maintenance exceeds the lease rate.
	never := Amortization{BuyPricePerAddr: 22.5, MaintenancePerAddrYear: 6, LeasePerAddrMonth: 0.30}
	if _, err := never.Months(); err != ErrNeverAmortizes {
		t.Errorf("err = %v, want ErrNeverAmortizes", err)
	}
	// Invalid input.
	if _, err := (Amortization{}).Months(); err != ErrBadInput {
		t.Errorf("err = %v, want ErrBadInput", err)
	}

	grid := Grid(22.5, 0.05, 1.5, []float64{0.05, 0.30, 1.0, 2.33})
	if len(grid) != 4 {
		t.Fatal("grid size")
	}
	if grid[0].Amortizes {
		t.Error("$0.05/month should never amortize against $0.125 maintenance")
	}
	if !grid[3].Amortizes || grid[3].Months > grid[1].Months {
		t.Error("higher lease rates must amortize faster")
	}
	if !math.IsInf(grid[0].Months, 1) {
		t.Error("non-amortizing rows carry +Inf")
	}
}
