package serve

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"strconv"

	"ipv4market/internal/core"
	"ipv4market/internal/jsonenc"
	"ipv4market/internal/market"
)

// priceTable is the in-memory layout of the snapshot's price cells
// behind /v1/prices: the cells themselves (the snapshot's PriceCells
// slice), which priceFilter.match selects from, and each row's JSON and
// CSV renderings, produced once at build time — rendering a filtered
// response is then a concatenation of pre-encoded fragments, with no
// per-row marshalling, no float formatting, and no intermediate
// []market.PriceCell copy.
//
// Byte-exactness contract: render(f) must produce exactly the bytes of
// the row-at-a-time reference newArtifact(viewPriceCells(cells),
// priceCellsCSV(cells)) over cells = filterPriceCells(cells, f.match)
// — same bodies, same ETags — so warm-started and cold-built servers,
// and servers from before this layout existed, answer filtered queries
// identically. The reference lives in the package's tests (viewPriceCells
// in oracle_test.go), and TestPriceTableRenderIdentity pins the
// contract. The unfiltered render is the fig1 and /v1/prices artifact.
type priceTable struct {
	cells []market.PriceCell

	// jsonRow[i] is json.MarshalIndent(rowView, "    ", "  "), written
	// by appendPriceRow — the array-element encoding at the exact depth
	// it appears inside the priceCellsView document. csvRow[i] is the row's rendered CSV line
	// including the terminator; csvHeader is the column-header line.
	jsonRow   [][]byte
	csvRow    [][]byte
	csvHeader []byte
}

// newPriceTable renders every cell's rows once and keeps cells.
func newPriceTable(cells []market.PriceCell) (*priceTable, error) {
	t := &priceTable{
		cells:   cells,
		jsonRow: make([][]byte, len(cells)),
		csvRow:  make([][]byte, len(cells)),
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(core.Figure1CSVHeader()); err != nil {
		return nil, fmt.Errorf("serve: price table header: %w", err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, fmt.Errorf("serve: price table header: %w", err)
	}
	t.csvHeader = append([]byte(nil), buf.Bytes()...)

	var rowBuf []byte // one row's indented JSON, before its exact-size copy
	for i, c := range cells {
		row, err := appendPriceRow(rowBuf[:0], c)
		if err != nil {
			return nil, fmt.Errorf("serve: price table row %d: %w", i, err)
		}
		rowBuf = row
		t.jsonRow[i] = bytes.Clone(row)

		buf.Reset()
		if err := cw.Write(core.Figure1CSVRow(c)); err != nil {
			return nil, fmt.Errorf("serve: price table row %d: %w", i, err)
		}
		cw.Flush()
		if err := cw.Error(); err != nil {
			return nil, fmt.Errorf("serve: price table row %d: %w", i, err)
		}
		t.csvRow[i] = append([]byte(nil), buf.Bytes()...)
	}
	return t, nil
}

// appendPriceRow appends cell c's row of the prices document as it sits
// in the cells array: json.MarshalIndent of its priceCellView with
// prefix "    " and indent "  ", written field by field. A NaN or
// infinite statistic fails as json.Marshal fails.
func appendPriceRow(b []byte, c market.PriceCell) ([]byte, error) {
	b = append(b, "{\n      \"quarter\": "...)
	b = jsonenc.AppendString(b, c.Quarter.String())
	b = append(b, ",\n      \"bits\": "...)
	b = strconv.AppendInt(b, int64(c.Bits), 10)
	b = append(b, ",\n      \"region\": "...)
	b = jsonenc.AppendString(b, c.Region.String())
	b = append(b, ",\n      \"n\": "...)
	b = strconv.AppendInt(b, int64(c.Box.N), 10)
	for _, f := range [...]struct {
		name string
		v    float64
	}{{"min", c.Box.Min}, {"q1", c.Box.Q1}, {"median", c.Box.Median}, {"q3", c.Box.Q3}, {"max", c.Box.Max}, {"mean", c.Box.Mean}} {
		b = append(b, ",\n      \""...)
		b = append(b, f.name...)
		b = append(b, "\": "...)
		var err error
		if b, err = jsonenc.AppendFloat(b, f.v); err != nil {
			return nil, err
		}
	}
	return append(b, "\n    }"...), nil
}

// len reports the row count.
func (t *priceTable) len() int { return len(t.cells) }

// render materializes the filtered artifact by concatenating the
// pre-encoded fragments of the rows f matches, in table order.
func (t *priceTable) render(f priceFilter) *artifact {
	idx := make([]int, 0, len(t.cells))
	for i, c := range t.cells {
		if f.match(c) {
			idx = append(idx, i)
		}
	}

	jsonSize := len(`{  "cells": [],  "n": `) + 8
	csvSize := len(t.csvHeader)
	for _, i := range idx {
		jsonSize += len(t.jsonRow[i]) + 6 // ",\n    " separator
		csvSize += len(t.csvRow[i])
	}

	// The JSON document mirrors json.MarshalIndent(priceCellsView, "",
	// "  ") byte for byte: a two-space-indented object with the cells
	// array first and the count after, trailing newline appended (as
	// newArtifact does).
	jb := bytes.NewBuffer(make([]byte, 0, jsonSize))
	jb.WriteString("{\n  \"cells\": [")
	for n, i := range idx {
		if n > 0 {
			jb.WriteByte(',')
		}
		jb.WriteString("\n    ")
		jb.Write(t.jsonRow[i])
	}
	if len(idx) > 0 {
		jb.WriteString("\n  ")
	}
	jb.WriteString("],\n  \"n\": ")
	jb.WriteString(strconv.Itoa(len(idx)))
	jb.WriteString("\n}\n")

	cb := bytes.NewBuffer(make([]byte, 0, csvSize))
	cb.Write(t.csvHeader)
	for _, i := range idx {
		cb.Write(t.csvRow[i])
	}

	art := &artifact{json: jb.Bytes(), csv: cb.Bytes()}
	art.jsonETag = etagOf(art.json)
	art.csvETag = etagOf(art.csv)
	return art
}
