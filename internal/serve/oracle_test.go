package serve

import (
	"ipv4market/internal/market"
	"ipv4market/internal/registry"
)

// The reflection-marshalled documents that the append encoders
// replaced, kept as their byte oracles: encodeJSON of each view is what
// the served body was and must stay.

// Prices: priceTable.render and its rows (TestPriceTableRenderIdentity).

type priceCellView struct {
	Quarter string  `json:"quarter"`
	Bits    int     `json:"bits"`
	Region  string  `json:"region"`
	N       int     `json:"n"`
	Min     float64 `json:"min"`
	Q1      float64 `json:"q1"`
	Median  float64 `json:"median"`
	Q3      float64 `json:"q3"`
	Max     float64 `json:"max"`
	Mean    float64 `json:"mean"`
}

type priceCellsView struct {
	Cells []priceCellView `json:"cells"`
	N     int             `json:"n"`
}

func viewPriceCells(cells []market.PriceCell) priceCellsView {
	out := priceCellsView{Cells: make([]priceCellView, 0, len(cells)), N: len(cells)}
	for _, c := range cells {
		out.Cells = append(out.Cells, priceCellView{
			Quarter: c.Quarter.String(),
			Bits:    c.Bits,
			Region:  c.Region.String(),
			N:       c.Box.N,
			Min:     c.Box.Min,
			Q1:      c.Box.Q1,
			Median:  c.Box.Median,
			Q3:      c.Box.Q3,
			Max:     c.Box.Max,
			Mean:    c.Box.Mean,
		})
	}
	return out
}

// Transfers: transfersBody (TestTransfersBodyMatchesMarshal and
// FuzzTransfersBody).

type transferView struct {
	Prefix       string  `json:"prefix"`
	From         string  `json:"from"`
	To           string  `json:"to"`
	FromRIR      string  `json:"from_rir"`
	ToRIR        string  `json:"to_rir"`
	Type         string  `json:"type"`
	Date         string  `json:"date"`
	PricePerAddr float64 `json:"price_per_addr,omitempty"`
}

type yearCountView struct {
	Year      int    `json:"year"`
	Count     int    `json:"count"`
	Addresses uint64 `json:"addresses"`
}

type transfersView struct {
	Total     int             `json:"total"`
	Market    int             `json:"market"`
	Mergers   int             `json:"mergers"`
	InterRIR  int             `json:"inter_rir"`
	ByYear    []yearCountView `json:"by_year"`
	Transfers []transferView  `json:"transfers"`
}

func viewTransfers(transfers []registry.Transfer) transfersView {
	out := transfersView{
		Total:     len(transfers),
		Transfers: make([]transferView, 0, len(transfers)),
	}
	byYear := make(map[int]*yearCountView)
	minYear, maxYear := 0, 0
	for _, t := range transfers {
		switch t.Type {
		case registry.TypeMerger:
			out.Mergers++
		default:
			out.Market++
		}
		if t.IsInterRIR() {
			out.InterRIR++
		}
		y := t.Date.UTC().Year()
		if byYear[y] == nil {
			byYear[y] = &yearCountView{Year: y}
		}
		byYear[y].Count++
		byYear[y].Addresses += t.Prefix.NumAddrs()
		if minYear == 0 || y < minYear {
			minYear = y
		}
		if y > maxYear {
			maxYear = y
		}
		out.Transfers = append(out.Transfers, transferView{
			Prefix:       t.Prefix.String(),
			From:         string(t.From),
			To:           string(t.To),
			FromRIR:      t.FromRIR.String(),
			ToRIR:        t.ToRIR.String(),
			Type:         string(t.Type),
			Date:         fmtDate(t.Date),
			PricePerAddr: t.PricePerAddr,
		})
	}
	for y := minYear; y <= maxYear && minYear != 0; y++ {
		if v := byYear[y]; v != nil {
			out.ByYear = append(out.ByYear, *v)
		}
	}
	return out
}
