package core

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ipv4market/internal/market"
	"ipv4market/internal/registry"
)

// CSV emitters: one per plottable figure, so the series can be fed to any
// external plotting tool to redraw the paper's figures.

func writeCSV(w io.Writer, header []string, rows [][]string) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(header); err != nil {
		return err
	}
	if err := cw.WriteAll(rows); err != nil {
		return err
	}
	cw.Flush()
	return cw.Error()
}

func f2(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
func f4(v float64) string { return strconv.FormatFloat(v, 'f', 4, 64) }

// Figure1CSVHeader returns Figure 1's CSV column names: the layout of
// every price-cell CSV, the served fig1 and /v1/prices bodies included.
func Figure1CSVHeader() []string {
	return []string{"quarter", "prefix_bits", "region", "n", "min", "q1", "median", "q3", "max", "mean"}
}

// Figure1CSVRow formats one price cell as a row under Figure1CSVHeader.
func Figure1CSVRow(c market.PriceCell) []string {
	return []string{
		c.Quarter.String(), strconv.Itoa(c.Bits), c.Region.String(),
		strconv.Itoa(c.Box.N), f2(c.Box.Min), f2(c.Box.Q1), f2(c.Box.Median),
		f2(c.Box.Q3), f2(c.Box.Max), f2(c.Box.Mean),
	}
}

// Figure1CSV writes the per-(quarter, prefix, region) box-plot summaries.
func (s *Study) Figure1CSV(w io.Writer) error {
	var rows [][]string
	for _, c := range s.Figure1() {
		rows = append(rows, Figure1CSVRow(c))
	}
	return writeCSV(w, Figure1CSVHeader(), rows)
}

// Figure2CSV writes the quarterly transfer counts per region.
func (s *Study) Figure2CSV(w io.Writer) error { return WriteFigure2CSV(w, s.Figure2()) }

// WriteFigure2CSV writes Figure 2's quarterly counts as Figure2CSV does.
func WriteFigure2CSV(w io.Writer, counts map[registry.RIR][]market.QuarterCount) error {
	var rows [][]string
	for _, rir := range registry.AllRIRs() {
		for _, qc := range counts[rir] {
			rows = append(rows, []string{qc.Quarter.String(), rir.String(), strconv.Itoa(qc.Count)})
		}
	}
	return writeCSV(w, []string{"quarter", "region", "transfers"}, rows)
}

// Figure3CSV writes the inter-RIR flows.
func (s *Study) Figure3CSV(w io.Writer) error { return WriteFigure3CSV(w, s.Figure3()) }

// WriteFigure3CSV writes Figure 3's flows as Figure3CSV does.
func WriteFigure3CSV(w io.Writer, flows []market.InterRIRFlow) error {
	rows := make([][]string, 0, len(flows))
	for _, f := range flows {
		rows = append(rows, []string{
			strconv.Itoa(f.Year), f.From.String(), f.To.String(),
			strconv.Itoa(f.Count), strconv.FormatUint(f.Addresses, 10),
		})
	}
	return writeCSV(w, []string{"year", "from", "to", "transfers", "addresses"}, rows)
}

// Figure4CSV writes the monthly advertised-price samples per provider.
func (s *Study) Figure4CSV(w io.Writer) error { return WriteFigure4CSV(w, s.Figure4()) }

// WriteFigure4CSV writes Figure 4's price samples as Figure4CSV does.
func WriteFigure4CSV(w io.Writer, points []Figure4Point) error {
	rows := make([][]string, 0, len(points))
	for _, p := range points {
		rows = append(rows, []string{
			p.Date.Format("2006-01-02"), p.Provider,
			strconv.FormatBool(p.Bundled), f2(p.Price),
		})
	}
	return writeCSV(w, []string{"date", "provider", "bundled", "price_per_ip_month"}, rows)
}

// Figure5CSV writes the consistency-rule fail-rate grid.
func (s *Study) Figure5CSV(w io.Writer, ms, ns []int) error {
	grid, err := s.Figure5(ms, ns)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, r := range grid {
		rows = append(rows, []string{
			strconv.Itoa(r.N), strconv.Itoa(r.M),
			strconv.Itoa(r.Premises), strconv.Itoa(r.Failures), f4(r.FailRate()),
		})
	}
	return writeCSV(w, []string{"n", "m", "premises", "failures", "fail_rate"}, rows)
}

// Figure6CSV writes the delegation time series.
func (s *Study) Figure6CSV(w io.Writer, sampleEvery int) error {
	res, err := s.Figure6(sampleEvery)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, p := range res.Points {
		rows = append(rows, []string{
			p.Date.Format("2006-01-02"),
			strconv.Itoa(p.BaselineCount), strconv.FormatUint(p.BaselineIPs, 10),
			strconv.Itoa(p.ExtendedCount), strconv.FormatUint(p.ExtendedIPs, 10),
		})
	}
	return writeCSV(w, []string{"date", "baseline_delegations", "baseline_ips", "extended_delegations", "extended_ips"}, rows)
}

// csvTargets enumerates the exportable series for the harness.
func (s *Study) csvTargets(sampleEvery int) []struct {
	Name  string
	Write func(io.Writer) error
} {
	return []struct {
		Name  string
		Write func(io.Writer) error
	}{
		{"fig1_prices.csv", s.Figure1CSV},
		{"fig2_transfers.csv", s.Figure2CSV},
		{"fig3_interrir.csv", s.Figure3CSV},
		{"fig4_leasing.csv", s.Figure4CSV},
		{"fig5_consistency.csv", func(w io.Writer) error {
			return s.Figure5CSV(w, []int{2, 5, 10, 20, 40, 60, 80, 100}, []int{0, 1, 2, 3, 5, 10})
		}},
		{"fig6_delegations.csv", func(w io.Writer) error { return s.Figure6CSV(w, sampleEvery) }},
	}
}

// ExportCSV writes every figure's data series through the provided opener
// (typically os.Create wrapped by the caller). It returns the file names
// written.
func (s *Study) ExportCSV(sampleEvery int, create func(name string) (io.WriteCloser, error)) ([]string, error) {
	var written []string
	for _, target := range s.csvTargets(sampleEvery) {
		f, err := create(target.Name)
		if err != nil {
			return written, err
		}
		if err := target.Write(f); err != nil {
			f.Close()
			return written, fmt.Errorf("%s: %w", target.Name, err)
		}
		if err := f.Close(); err != nil {
			return written, err
		}
		written = append(written, target.Name)
	}
	return written, nil
}
