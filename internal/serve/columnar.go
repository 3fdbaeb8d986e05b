package serve

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"strconv"

	"ipv4market/internal/market"
	"ipv4market/internal/registry"
	"ipv4market/internal/stats"
)

// priceTable is the columnar in-memory layout of the snapshot's price
// cells. The filter columns (bits, region, quarter) are stored as plain
// slices so a filtered /v1/prices scan touches only the bytes it
// compares, and each row's JSON and CSV renderings are produced once at
// build time — rendering a filtered response is then a concatenation of
// pre-encoded fragments, with no per-row marshalling, no float
// formatting, and no intermediate []market.PriceCell copy.
//
// Byte-exactness contract: render(f) must produce exactly the bytes of
// the row-at-a-time reference newArtifact(viewPriceCells(cells),
// priceCellsCSV(cells)) over cells = filterPriceCells(cells, f.match)
// — same bodies, same ETags — so warm-started and cold-built servers,
// and servers from before this layout existed, answer filtered queries
// identically. The reference lives beside TestPriceTableRenderIdentity,
// which pins the contract.
type priceTable struct {
	bits    []int
	region  []registry.RIR
	quarter []stats.Quarter

	// jsonRow[i] is json.MarshalIndent(rowView, "    ", "  "), written
	// by appendIndent — the array-element encoding at the exact depth
	// it appears inside the priceCellsView document. csvRow[i] is the row's rendered CSV line
	// including the terminator; csvHeader is the column-header line.
	jsonRow   [][]byte
	csvRow    [][]byte
	csvHeader []byte
}

// priceCSVHeader is the shared column layout of Figure1CSV and
// priceCellsCSV.
var priceCSVHeader = []string{"quarter", "prefix_bits", "region", "n", "min", "q1", "median", "q3", "max", "mean"}

// newPriceTable renders every cell once into the columnar layout.
func newPriceTable(cells []market.PriceCell) (*priceTable, error) {
	t := &priceTable{
		bits:    make([]int, len(cells)),
		region:  make([]registry.RIR, len(cells)),
		quarter: make([]stats.Quarter, len(cells)),
		jsonRow: make([][]byte, len(cells)),
		csvRow:  make([][]byte, len(cells)),
	}
	var buf bytes.Buffer
	cw := csv.NewWriter(&buf)
	if err := cw.Write(priceCSVHeader); err != nil {
		return nil, fmt.Errorf("serve: price table header: %w", err)
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return nil, fmt.Errorf("serve: price table header: %w", err)
	}
	t.csvHeader = append([]byte(nil), buf.Bytes()...)

	f2 := func(v float64) string { return strconv.FormatFloat(v, 'f', 2, 64) }
	var rowBuf []byte // one row's indented JSON, before its exact-size copy
	for i, c := range cells {
		t.bits[i] = c.Bits
		t.region[i] = c.Region
		t.quarter[i] = c.Quarter

		view := priceCellView{
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
		}
		row, err := json.Marshal(view)
		if err != nil {
			return nil, fmt.Errorf("serve: price table row %d: %w", i, err)
		}
		rowBuf = appendIndent(rowBuf[:0], row, "    ")
		t.jsonRow[i] = bytes.Clone(rowBuf)

		buf.Reset()
		err = cw.Write([]string{
			view.Quarter, strconv.Itoa(c.Bits), view.Region,
			strconv.Itoa(c.Box.N), f2(c.Box.Min), f2(c.Box.Q1), f2(c.Box.Median),
			f2(c.Box.Q3), f2(c.Box.Max), f2(c.Box.Mean),
		})
		if err != nil {
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

// len reports the row count.
func (t *priceTable) len() int { return len(t.bits) }

// selectRows scans the filter columns and returns the matching row
// indices in table order.
func (t *priceTable) selectRows(f priceFilter) []int {
	idx := make([]int, 0, t.len())
	for i := range t.bits {
		if f.bits != 0 && t.bits[i] != f.bits {
			continue
		}
		if f.hasRIR && t.region[i] != f.region {
			continue
		}
		if f.hasQuarter && t.quarter[i] != f.quarter {
			continue
		}
		idx = append(idx, i)
	}
	return idx
}

// render materializes the filtered artifact by slicing column views and
// concatenating the selected rows' pre-encoded fragments.
func (t *priceTable) render(f priceFilter) *artifact {
	idx := t.selectRows(f)

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
