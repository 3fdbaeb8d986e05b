package serve

import (
	"strconv"
	"time"
	"unicode/utf8"

	"ipv4market/internal/core"
	"ipv4market/internal/delegation"
	"ipv4market/internal/jsonenc"
	"ipv4market/internal/market"
	"ipv4market/internal/registry"
)

// The view types give every endpoint a stable, human-readable JSON
// schema: regions and phases as display strings, dates as YYYY-MM-DD,
// prefixes in CIDR notation. They decouple the wire format from the
// internal analysis types.

func fmtDate(t time.Time) string {
	if t.IsZero() {
		return ""
	}
	return t.Format("2006-01-02")
}

// ---- /v1/table1 ----

type table1RowView struct {
	RIR             string `json:"rir"`
	DownToLastBlock string `json:"down_to_last_block"`
	Depleted        string `json:"depleted,omitempty"`
	Phase2020       string `json:"phase_2020"`
	MaxAssignment   int    `json:"max_assignment_bits"`
	WaitingList     int    `json:"waiting_list"`
}

type table1View struct {
	Rows []table1RowView `json:"rows"`
}

func viewTable1(rows []core.Table1Row) table1View {
	out := table1View{Rows: make([]table1RowView, 0, len(rows))}
	for _, r := range rows {
		out.Rows = append(out.Rows, table1RowView{
			RIR:             r.RIR.String(),
			DownToLastBlock: fmtDate(r.DownToLastBlock),
			Depleted:        fmtDate(r.Depleted),
			Phase2020:       r.Phase2020.String(),
			MaxAssignment:   r.MaxAssignment,
			WaitingList:     r.WaitingList,
		})
	}
	return out
}

// ---- /v1/figures/2 ----

type quarterCountView struct {
	Quarter string `json:"quarter"`
	Count   int    `json:"count"`
}

type transferSeriesView struct {
	Series map[string][]quarterCountView `json:"series"`
}

func viewTransferSeries(counts map[registry.RIR][]market.QuarterCount) transferSeriesView {
	out := transferSeriesView{Series: make(map[string][]quarterCountView, len(counts))}
	for rir, series := range counts {
		vs := make([]quarterCountView, 0, len(series))
		for _, qc := range series {
			vs = append(vs, quarterCountView{Quarter: qc.Quarter.String(), Count: qc.Count})
		}
		out.Series[rir.String()] = vs
	}
	return out
}

// ---- /v1/figures/3 ----

type interRIRFlowView struct {
	Year      int    `json:"year"`
	From      string `json:"from"`
	To        string `json:"to"`
	Count     int    `json:"count"`
	Addresses uint64 `json:"addresses"`
}

type interRIRFlowsView struct {
	Flows []interRIRFlowView `json:"flows"`
}

func viewInterRIRFlows(flows []market.InterRIRFlow) interRIRFlowsView {
	out := interRIRFlowsView{Flows: make([]interRIRFlowView, 0, len(flows))}
	for _, f := range flows {
		out.Flows = append(out.Flows, interRIRFlowView{
			Year: f.Year, From: f.From.String(), To: f.To.String(),
			Count: f.Count, Addresses: f.Addresses,
		})
	}
	return out
}

// ---- /v1/figures/4 ----

type leasingPointView struct {
	Provider string  `json:"provider"`
	Bundled  bool    `json:"bundled"`
	Date     string  `json:"date"`
	Price    float64 `json:"price_per_ip_month"`
}

type leasingPointsView struct {
	Points []leasingPointView `json:"points"`
}

func viewLeasingPoints(points []core.Figure4Point) leasingPointsView {
	out := leasingPointsView{Points: make([]leasingPointView, 0, len(points))}
	for _, p := range points {
		out.Points = append(out.Points, leasingPointView{
			Provider: p.Provider, Bundled: p.Bundled,
			Date: fmtDate(p.Date), Price: p.Price,
		})
	}
	return out
}

// ---- /v1/leasing ----

type priceChangeView struct {
	Provider string  `json:"provider"`
	Date     string  `json:"date"`
	From     float64 `json:"from"`
	To       float64 `json:"to"`
}

type leasingView struct {
	Date        string            `json:"date"`
	Providers   int               `json:"providers"`
	Min         float64           `json:"min"`
	Max         float64           `json:"max"`
	Mean        float64           `json:"mean"`
	PureMean    float64           `json:"pure_mean"`
	BundledMean float64           `json:"bundled_mean"`
	Changes     []priceChangeView `json:"changes"`
}

func viewLeasing(snap market.LeasingSnapshot, changes []market.PriceChange) leasingView {
	out := leasingView{
		Date:      fmtDate(snap.Date),
		Providers: snap.Providers,
		Min:       snap.Min, Max: snap.Max, Mean: snap.Mean,
		PureMean: snap.PureMean, BundledMean: snap.BundledMean,
		Changes: make([]priceChangeView, 0, len(changes)),
	}
	for _, c := range changes {
		out.Changes = append(out.Changes, priceChangeView{
			Provider: c.Provider, Date: fmtDate(c.Date), From: c.From, To: c.To,
		})
	}
	return out
}

// ---- /v1/transfers ----

// transfersBody renders the /v1/transfers JSON body straight from the
// transfer log, read in place: the totals, the per-year counts and
// every transfer, indented as encodeJSON indents. Its bytes, and its
// error on a NaN or infinite price, are exactly those of the
// reflection-marshalled document it replaced (viewTransfers in
// oracle_test.go, which TestTransfersBodyMatchesMarshal and
// FuzzTransfersBody compare with it), so no ETag moved:
// prices of 0 and -0 are omitted as omitempty omits them, and an empty
// log has "by_year": null but "transfers": [].
//
// A first pass sizes the transfers exactly, from each one's values
// measured on the stack, so the body, which its generation keeps for
// its whole life, is written once into a buffer of its length and no
// slack is kept beside it (TestTransfersBodySizedExactly).
func transfersBody(log market.TransferLog) ([]byte, error) {
	n := log.NumTransfers()
	var nMarket, mergers, interRIR int
	minYear, maxYear := 0, 0
	size := 256
	var scratch [64]byte
	for i := range n {
		t := log.TransferAt(i)
		if t.Type == registry.TypeMerger {
			mergers++
		} else {
			nMarket++
		}
		if t.IsInterRIR() {
			interRIR++
		}
		// The year range follows the document this body replaced, whose
		// minYear of 0 meant unset: a transfer in year 0 can restart the
		// range at a later year, and a range that ends at 0 lists nothing.
		y := t.Date.UTC().Year()
		if minYear == 0 || y < minYear {
			minYear = y
		}
		maxYear = max(maxYear, y)
		size += len(transferRowHead) + len(transferRowFrom) + len(transferRowTo) +
			len(transferRowFromRIR) + len(transferRowToRIR) + len(transferRowType) +
			len(transferRowDate) + len(transferRowTail) + 1 + // the comma
			len(t.Prefix.AppendTo(scratch[:0])) + 1 + // and its closing quote
			quotedLen(string(t.From), scratch[:0]) + quotedLen(string(t.To), scratch[:0]) +
			quotedLen(t.FromRIR.String(), scratch[:0]) + quotedLen(t.ToRIR.String(), scratch[:0]) +
			quotedLen(string(t.Type), scratch[:0]) + len(jsonenc.AppendDay(scratch[:0], t.Date))
		//lint:ignore floatcmp omitempty omits exactly the zero float, -0 included
		if t.PricePerAddr != 0 {
			price, err := jsonenc.AppendFloat(scratch[:0], t.PricePerAddr)
			if err != nil {
				return nil, err
			}
			size += len(transferRowPrice) + len(price)
		}
	}
	type yearCount struct {
		count int
		addrs uint64
	}
	var years []yearCount
	if n > 0 && minYear != 0 {
		years = make([]yearCount, maxYear-minYear+1)
		size += 80 * len(years)
		for i := range n {
			t := log.TransferAt(i)
			if y := t.Date.UTC().Year(); y >= minYear {
				years[y-minYear].count++
				years[y-minYear].addrs += t.Prefix.NumAddrs()
			}
		}
	}

	b := make([]byte, 0, size)
	b = append(b, "{\n  \"total\": "...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, ",\n  \"market\": "...)
	b = strconv.AppendInt(b, int64(nMarket), 10)
	b = append(b, ",\n  \"mergers\": "...)
	b = strconv.AppendInt(b, int64(mergers), 10)
	b = append(b, ",\n  \"inter_rir\": "...)
	b = strconv.AppendInt(b, int64(interRIR), 10)
	b = append(b, ",\n  \"by_year\": "...)
	if years == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		first := true
		for i, y := range years {
			if y.count == 0 {
				continue
			}
			if !first {
				b = append(b, ',')
			}
			first = false
			b = append(b, "\n    {\n      \"year\": "...)
			b = strconv.AppendInt(b, int64(minYear+i), 10)
			b = append(b, ",\n      \"count\": "...)
			b = strconv.AppendInt(b, int64(y.count), 10)
			b = append(b, ",\n      \"addresses\": "...)
			b = strconv.AppendUint(b, y.addrs, 10)
			b = append(b, "\n    }"...)
		}
		b = append(b, "\n  ]"...)
	}
	b = append(b, ",\n  \"transfers\": ["...)
	for i := range n {
		t := log.TransferAt(i)
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, transferRowHead...)
		b = t.Prefix.AppendTo(b)
		b = append(b, '"')
		b = append(b, transferRowFrom...)
		b = jsonenc.AppendString(b, string(t.From))
		b = append(b, transferRowTo...)
		b = jsonenc.AppendString(b, string(t.To))
		b = append(b, transferRowFromRIR...)
		b = jsonenc.AppendString(b, t.FromRIR.String())
		b = append(b, transferRowToRIR...)
		b = jsonenc.AppendString(b, t.ToRIR.String())
		b = append(b, transferRowType...)
		b = jsonenc.AppendString(b, string(t.Type))
		b = append(b, transferRowDate...)
		b = jsonenc.AppendDay(b, t.Date)
		//lint:ignore floatcmp omitempty omits exactly the zero float, -0 included
		if t.PricePerAddr != 0 {
			b = append(b, transferRowPrice...)
			var err error
			if b, err = jsonenc.AppendFloat(b, t.PricePerAddr); err != nil {
				return nil, err
			}
		}
		b = append(b, transferRowTail...)
	}
	if n > 0 {
		b = append(b, "\n  "...)
	}
	return append(b, "]\n}\n"...), nil
}

// The fixed bytes of one transfer in transfersBody, around its values.
const (
	transferRowHead    = "\n    {\n      \"prefix\": \""
	transferRowFrom    = ",\n      \"from\": "
	transferRowTo      = ",\n      \"to\": "
	transferRowFromRIR = ",\n      \"from_rir\": "
	transferRowToRIR   = ",\n      \"to_rir\": "
	transferRowType    = ",\n      \"type\": "
	transferRowDate    = ",\n      \"date\": "
	transferRowPrice   = ",\n      \"price_per_addr\": "
	transferRowTail    = "\n    }"
)

// quotedLen returns the length of s as jsonenc.AppendString writes it:
// its length and two quotes when no byte needs an escape, as in every
// real log, and otherwise the length of its encoding into scratch.
func quotedLen(s string, scratch []byte) int {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= utf8.RuneSelf || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			return len(jsonenc.AppendString(scratch, s))
		}
	}
	return len(s) + 2
}

// ---- /v1/delegations ----

type delegationView struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	From   uint32 `json:"from_as"`
	To     uint32 `json:"to_as"`
}

func viewDelegations(ds []delegation.Delegation) []delegationView {
	out := make([]delegationView, 0, len(ds))
	for _, d := range ds {
		out = append(out, delegationView{
			Parent: d.Parent.String(),
			Child:  d.Child.String(),
			From:   uint32(d.From),
			To:     uint32(d.To),
		})
	}
	return out
}

type delegationSummaryView struct {
	Date          string             `json:"date"`
	Delegations   int                `json:"delegations"`
	Addresses     uint64             `json:"addresses"`
	SizeHistogram map[string]float64 `json:"size_histogram"`
}

func viewDelegationSummary(ix *DelegationIndex) delegationSummaryView {
	out := delegationSummaryView{
		Date:          fmtDate(ix.Date()),
		Delegations:   ix.Len(),
		Addresses:     ix.Addrs(),
		SizeHistogram: make(map[string]float64, len(ix.hist)),
	}
	for _, bits := range ix.sizeBits() {
		out.SizeHistogram["/"+strconv.Itoa(bits)] = ix.hist[bits]
	}
	return out
}

type delegationLookupView struct {
	Prefix   string           `json:"prefix"`
	Date     string           `json:"date"`
	Exact    []delegationView `json:"exact"`
	Covering []delegationView `json:"covering"`
	Covered  []delegationView `json:"covered"`
}

// ---- /v1/headline ----

type headlineView struct {
	MeanPrice2020  float64 `json:"mean_price_2020"`
	MeanPriceCILo  float64 `json:"mean_price_ci_lo"`
	MeanPriceCIHi  float64 `json:"mean_price_ci_hi"`
	GrowthFactor   float64 `json:"growth_factor"`
	RegionDiffers  bool    `json:"region_differs"`
	RegionPValue   float64 `json:"region_p_value"`
	SizePremium    float64 `json:"size_premium"`
	Consolidated   bool    `json:"consolidated"`
	ConsolidatedAt string  `json:"consolidated_since,omitempty"`
	PricedRecords  int     `json:"priced_records"`
}

// ---- /v1/utilization ----

type utilizationPointView struct {
	Quarter   string `json:"quarter"`
	Date      string `json:"date"`
	Allocated uint64 `json:"allocated"`
	Routed    uint64 `json:"routed"`
	Active    uint64 `json:"active"`
}

type utilizationView struct {
	Points []utilizationPointView `json:"points"`
	N      int                    `json:"n"`
}

func viewUtilization(points []core.UtilizationPoint) utilizationView {
	out := utilizationView{Points: make([]utilizationPointView, 0, len(points)), N: len(points)}
	for _, p := range points {
		out.Points = append(out.Points, utilizationPointView{
			Quarter:   p.Quarter,
			Date:      fmtDate(p.Date),
			Allocated: p.Allocated,
			Routed:    p.Routed,
			Active:    p.Active,
		})
	}
	return out
}

// ---- /v1/rpki ----

type rpkiBucketView struct {
	Date         string  `json:"date"`
	Days         int     `json:"days"`
	MeanPresent  float64 `json:"mean_present"`
	MaxPresent   int     `json:"max_present"`
	Churn        int     `json:"churn"`
	MeanChurnDay float64 `json:"mean_churn_per_day"`
}

type rpkiRuleView struct {
	M        int     `json:"m"`
	N        int     `json:"n"`
	Premises int     `json:"premises"`
	Failures int     `json:"failures"`
	FailRate float64 `json:"fail_rate"`
}

type rpkiView struct {
	Delegations int              `json:"delegations"`
	Buckets     []rpkiBucketView `json:"buckets"`
	Rules       []rpkiRuleView   `json:"rules"`
}

func viewRPKI(res core.RPKISeriesResult) rpkiView {
	out := rpkiView{
		Delegations: res.Delegations,
		Buckets:     make([]rpkiBucketView, 0, len(res.Buckets)),
		Rules:       make([]rpkiRuleView, 0, len(res.Rules)),
	}
	for _, b := range res.Buckets {
		out.Buckets = append(out.Buckets, rpkiBucketView{
			Date:         fmtDate(b.Date),
			Days:         b.Days,
			MeanPresent:  b.MeanPresent,
			MaxPresent:   b.MaxPresent,
			Churn:        b.Churn,
			MeanChurnDay: b.MeanChurnDay,
		})
	}
	for _, r := range res.Rules {
		out.Rules = append(out.Rules, rpkiRuleView{
			M: r.M, N: r.N, Premises: r.Premises, Failures: r.Failures,
			FailRate: r.FailRate(),
		})
	}
	return out
}

func viewHeadline(h core.HeadlineStats) headlineView {
	out := headlineView{
		MeanPrice2020: h.MeanPrice2020,
		MeanPriceCILo: h.MeanPriceCI.Lo,
		MeanPriceCIHi: h.MeanPriceCI.Hi,
		GrowthFactor:  h.GrowthFactor,
		RegionDiffers: h.RegionDiffers,
		RegionPValue:  h.RegionTest.PValue,
		SizePremium:   h.SizePremium,
		Consolidated:  h.Consolidated,
		PricedRecords: h.PricedRecords,
	}
	if h.Consolidated {
		out.ConsolidatedAt = h.Consolidation.Since.String()
	}
	return out
}
