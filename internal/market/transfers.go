// Package market implements the economic analyses of the paper: transfer
// volume over time (Figure 2), inter-RIR transfer flows (Figure 3), price
// evolution and the regional-difference test (Figure 1, §3), the leasing
// price book (Figure 4), and the buy-vs-lease amortization model (§6).
package market

import (
	"context"
	"sort"
	"time"

	"ipv4market/internal/parallel"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// TransferLog is read access to a transfer log in execution order.
// *registry.Registry reads its own log in place through it; Transfers
// adapts a slice.
type TransferLog interface {
	NumTransfers() int
	TransferAt(i int) registry.Transfer
}

// Transfers is a transfer slice read as a TransferLog.
type Transfers []registry.Transfer

// NumTransfers returns len(ts).
func (ts Transfers) NumTransfers() int { return len(ts) }

// TransferAt returns ts[i].
func (ts Transfers) TransferAt(i int) registry.Transfer { return ts[i] }

// FilterMarketTransfers copies out of log the transfers that are not
// merger-and-acquisition transfers of RIRs that label them (AFRINIC,
// ARIN, RIPE NCC). For APNIC and LACNIC the label is absent from the
// public logs, so M&A records pass through — exactly the bias §3 of
// the paper describes.
func FilterMarketTransfers(log TransferLog) Transfers {
	out := make(Transfers, 0, log.NumTransfers())
	for i := range log.NumTransfers() {
		t := log.TransferAt(i)
		if t.Type == registry.TypeMerger && registry.LabelsMA(t.FromRIR) {
			continue
		}
		out = append(out, t)
	}
	return out
}

// QuarterCount is one point of the Figure 2 series.
type QuarterCount struct {
	Quarter stats.Quarter
	Count   int
}

// QuarterlyCounts aggregates intra-RIR transfer counts per region and
// quarter — the series Figure 2 plots. Inter-RIR transfers are excluded
// (they are Figure 3's subject); the region is the source RIR, i.e. the
// registry that maintained the block (footnote 1).
func QuarterlyCounts(log TransferLog) map[registry.RIR][]QuarterCount {
	counts := make(map[registry.RIR]map[stats.Quarter]int)
	for i := range log.NumTransfers() {
		t := log.TransferAt(i)
		if t.IsInterRIR() {
			continue
		}
		q := stats.QuarterOf(t.Date)
		if counts[t.FromRIR] == nil {
			counts[t.FromRIR] = make(map[stats.Quarter]int)
		}
		counts[t.FromRIR][q]++
	}
	out := make(map[registry.RIR][]QuarterCount, len(counts))
	for rir, byQ := range counts {
		qs := make([]stats.Quarter, 0, len(byQ))
		for q := range byQ {
			qs = append(qs, q)
		}
		stats.SortQuarters(qs)
		series := make([]QuarterCount, 0, len(qs))
		for _, q := range qs {
			series = append(series, QuarterCount{Quarter: q, Count: byQ[q]})
		}
		out[rir] = series
	}
	return out
}

// QuarterlyCountsWorkers is QuarterlyCounts with the per-RIR aggregation
// fanned out across at most the given number of workers (<= 0: NumCPU):
// each RIR's quarterly series is counted by its own worker over the
// shared, read-only transfer log, and the merge assigns results by RIR
// index, so the returned map is always equal to QuarterlyCounts'. The
// only possible error is a recovered worker panic.
func QuarterlyCountsWorkers(log TransferLog, workers int) (map[registry.RIR][]QuarterCount, error) {
	rirs := registry.AllRIRs()
	series, err := parallel.Map(context.Background(), workers, len(rirs), func(_ context.Context, i int) ([]QuarterCount, error) {
		byQ := make(map[stats.Quarter]int)
		for j := range log.NumTransfers() {
			t := log.TransferAt(j)
			if t.IsInterRIR() || t.FromRIR != rirs[i] {
				continue
			}
			byQ[stats.QuarterOf(t.Date)]++
		}
		if len(byQ) == 0 {
			return nil, nil
		}
		qs := make([]stats.Quarter, 0, len(byQ))
		for q := range byQ {
			qs = append(qs, q)
		}
		stats.SortQuarters(qs)
		out := make([]QuarterCount, 0, len(qs))
		for _, q := range qs {
			out = append(out, QuarterCount{Quarter: q, Count: byQ[q]})
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[registry.RIR][]QuarterCount, len(rirs))
	for i, rir := range rirs {
		if series[i] != nil {
			out[rir] = series[i]
		}
	}
	return out, nil
}

// InterRIRFlow is one cell of the Figure 3 matrix.
type InterRIRFlow struct {
	From, To  registry.RIR
	Year      int
	Count     int
	Addresses uint64
}

// InterRIRFlows aggregates inter-RIR transfers by (source, destination,
// year), with total address volume — the data behind Figure 3. Results
// are sorted by year, then source, then destination.
func InterRIRFlows(log TransferLog) []InterRIRFlow {
	type key struct {
		from, to registry.RIR
		year     int
	}
	agg := make(map[key]*InterRIRFlow)
	for i := range log.NumTransfers() {
		t := log.TransferAt(i)
		if !t.IsInterRIR() {
			continue
		}
		k := key{t.FromRIR, t.ToRIR, t.Date.UTC().Year()}
		f := agg[k]
		if f == nil {
			f = &InterRIRFlow{From: t.FromRIR, To: t.ToRIR, Year: k.year}
			agg[k] = f
		}
		f.Count++
		f.Addresses += t.Prefix.NumAddrs()
	}
	out := make([]InterRIRFlow, 0, len(agg))
	for _, f := range agg {
		out = append(out, *f)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Year != b.Year {
			return a.Year < b.Year
		}
		if a.From != b.From {
			return a.From < b.From
		}
		return a.To < b.To
	})
	return out
}

// NetFlow returns, per RIR, the net address flow (received − sent) via
// inter-RIR transfers in [from, to). The paper observes that most
// transfers move space away from ARIN toward APNIC and RIPE.
func NetFlow(transfers []registry.Transfer, from, to time.Time) map[registry.RIR]int64 {
	out := make(map[registry.RIR]int64)
	for _, t := range transfers {
		if !t.IsInterRIR() || t.Date.Before(from) || !t.Date.Before(to) {
			continue
		}
		n := int64(t.Prefix.NumAddrs())
		out[t.FromRIR] -= n
		out[t.ToRIR] += n
	}
	return out
}

// MeanBlockSizeByYear returns the average inter-RIR transferred block size
// per year; the paper notes blocks get smaller over time.
func MeanBlockSizeByYear(transfers []registry.Transfer) map[int]float64 {
	sum := make(map[int]uint64)
	n := make(map[int]int)
	for _, t := range transfers {
		if !t.IsInterRIR() {
			continue
		}
		y := t.Date.UTC().Year()
		sum[y] += t.Prefix.NumAddrs()
		n[y]++
	}
	out := make(map[int]float64, len(sum))
	for y, s := range sum {
		out[y] = float64(s) / float64(n[y])
	}
	return out
}
