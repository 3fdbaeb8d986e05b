package temporal

import (
	"encoding/json"
	"fmt"
	"strconv"
	"time"

	"ipv4market/internal/jsonenc"
	"ipv4market/internal/netblock"
	"ipv4market/internal/registry"
)

// recordVersion guards the persisted encoding. Bump it on any change to
// the record structs or the normalization rules — a restored index must
// answer byte-identically to the one that recorded it, so an old record
// must be rejected (and rebuilt from the world) rather than reinterpreted.
const recordVersion = 1

// The record form is the normalized Input with prefixes and dates as
// strings: canonical JSON, stable across builds, fit for a `_state/` aux
// artifact. Record writes it directly; these structs are its decoder
// (Restore decodes them and re-runs New, so the restored index is the
// same pure function of the same normalized history) and the reference
// its encoder is tested against.
type recordDoc struct {
	Version     int           `json:"version"`
	Start       string        `json:"start"`
	End         string        `json:"end"`
	Allocations []allocRec    `json:"allocations"`
	Transfers   []transferRec `json:"transfers"`
	Leases      []leaseRec    `json:"leases"`
}

type allocRec struct {
	Prefix string `json:"prefix"`
	Org    string `json:"org"`
	RIR    string `json:"rir"`
	Date   string `json:"date"`
	Status string `json:"status,omitempty"`
}

type transferRec struct {
	Prefix       string  `json:"prefix"`
	From         string  `json:"from"`
	To           string  `json:"to"`
	FromRIR      string  `json:"from_rir"`
	ToRIR        string  `json:"to_rir"`
	Type         string  `json:"type"`
	Date         string  `json:"date"`
	PricePerAddr float64 `json:"price_per_addr,omitempty"`
}

type leaseRec struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	FromAS uint32 `json:"from_as"`
	ToAS   uint32 `json:"to_as"`
	Start  string `json:"start"`
	End    string `json:"end,omitempty"`
}

// Record encodes the index's normalized input history as canonical JSON:
// the same history always yields the same bytes, and Restore rebuilds an
// index answering every query identically.
//
// The bytes are exactly json.Marshal's for the history's recordDoc —
// field order, omitempty, string escaping, float format and the error on
// NaN or ±Inf — so records written by either encoder restore alike and
// compare equal. Record writes them from the index's columns, which
// keep the normalized input, in one append pass into a buffer sized up
// front instead of building the document and marshalling it through
// reflection; TestRecordMatchesMarshal and its fuzz twin hold the two
// encoders to the same bytes.
func (ix *Index) Record() ([]byte, error) {
	b := make([]byte, 0, ix.recordSize())
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, recordVersion, 10)
	b = append(b, `,"start":`...)
	b = jsonenc.AppendDay(b, dateOf(ix.start))
	b = append(b, `,"end":`...)
	b = jsonenc.AppendDay(b, dateOf(ix.end))

	b = append(b, `,"allocations":[`...)
	for i := range ix.allocs {
		a := &ix.allocs[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPrefix(b, `{"prefix":`, ix.blocks.prefixes[i])
		b = append(b, `,"org":`...)
		b = jsonenc.AppendString(b, ix.strs.at(a.org))
		b = append(b, `,"rir":`...)
		b = jsonenc.AppendString(b, registry.RIR(a.rir).String())
		b = append(b, `,"date":`...)
		b = jsonenc.AppendDay(b, dateOf(a.date))
		if status := ix.strs.at(a.status); status != "" {
			b = append(b, `,"status":`...)
			b = jsonenc.AppendString(b, status)
		}
		b = append(b, '}')
	}

	b = append(b, `],"transfers":[`...)
	for i := range ix.xfers {
		t := &ix.xfers[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPrefix(b, `{"prefix":`, t.prefix)
		b = append(b, `,"from":`...)
		b = jsonenc.AppendString(b, ix.strs.at(t.from))
		b = append(b, `,"to":`...)
		b = jsonenc.AppendString(b, ix.strs.at(t.to))
		b = append(b, `,"from_rir":`...)
		b = jsonenc.AppendString(b, registry.RIR(t.fromRIR).String())
		b = append(b, `,"to_rir":`...)
		b = jsonenc.AppendString(b, registry.RIR(t.toRIR).String())
		b = append(b, `,"type":`...)
		b = jsonenc.AppendString(b, ix.strs.at(t.typ))
		b = append(b, `,"date":`...)
		b = jsonenc.AppendDay(b, dateOf(t.date))
		//lint:ignore floatcmp omitempty omits exactly the zero float, -0 included
		if t.price != 0 {
			b = append(b, `,"price_per_addr":`...)
			var err error
			if b, err = jsonenc.AppendFloat(b, t.price); err != nil {
				return nil, fmt.Errorf("temporal: encode record: %w", err)
			}
		}
		b = append(b, '}')
	}

	b = append(b, `],"leases":[`...)
	for i := range ix.leases {
		l := &ix.leases[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPrefix(b, `{"parent":`, l.parent)
		b = appendPrefix(b, `,"child":`, l.child)
		b = append(b, `,"from_as":`...)
		b = strconv.AppendUint(b, uint64(l.fromAS), 10)
		b = append(b, `,"to_as":`...)
		b = strconv.AppendUint(b, uint64(l.toAS), 10)
		b = append(b, `,"start":`...)
		b = jsonenc.AppendDay(b, dateOf(l.start))
		if l.end != zeroDay {
			b = append(b, `,"end":`...)
			b = jsonenc.AppendDay(b, dateOf(l.end))
		}
		b = append(b, '}')
	}
	return append(b, "]}"...), nil
}

// recordSize bounds Record's length from above for histories with known
// RIRs, four-digit years and strings that need no escaping: each
// record's fixed bytes at their widest (an 18-byte prefix, a 24-byte
// float, 10-digit AS numbers), plus its strings. Other histories only
// grow the buffer.
func (ix *Index) recordSize() int {
	const (
		head     = 128
		perAlloc = 96  // fixed bytes of one allocation, RIR name included
		perXfer  = 168 // of one transfer, both RIR names and the price included
		perLease = 144
	)
	n := head + perAlloc*len(ix.allocs) + perXfer*len(ix.xfers) + perLease*len(ix.leases)
	strLen := func(id int32) int { return int(ix.strs.off[id+1] - ix.strs.off[id]) }
	for i := range ix.allocs {
		n += strLen(ix.allocs[i].org) + strLen(ix.allocs[i].status)
	}
	for i := range ix.xfers {
		t := &ix.xfers[i]
		n += strLen(t.from) + strLen(t.to) + strLen(t.typ)
	}
	return n
}

// appendPrefix appends a field name and a prefix as a JSON string; CIDR
// notation needs no escaping.
func appendPrefix(b []byte, field string, p netblock.Prefix) []byte {
	b = append(b, field...)
	b = append(b, '"')
	b = p.AppendTo(b)
	return append(b, '"')
}

// Restore rebuilds an index from Record() bytes. The result is
// indistinguishable from the index that recorded them.
func Restore(data []byte) (*Index, error) {
	var doc recordDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("temporal: decode record: %w", err)
	}
	if doc.Version != recordVersion {
		return nil, fmt.Errorf("temporal: record version %d, want %d", doc.Version, recordVersion)
	}
	in := Input{}
	var err error
	if in.Start, err = parseDay(doc.Start); err != nil {
		return nil, fmt.Errorf("temporal: record start: %w", err)
	}
	if in.End, err = parseDay(doc.End); err != nil {
		return nil, fmt.Errorf("temporal: record end: %w", err)
	}
	for _, a := range doc.Allocations {
		rec := AllocationRecord{Org: a.Org, Status: a.Status}
		if rec.Prefix, err = netblock.ParsePrefix(a.Prefix); err != nil {
			return nil, fmt.Errorf("temporal: record allocation: %w", err)
		}
		if rec.RIR, err = registry.ParseRIR(a.RIR); err != nil {
			return nil, fmt.Errorf("temporal: record allocation %s: %w", a.Prefix, err)
		}
		if rec.Date, err = parseDay(a.Date); err != nil {
			return nil, fmt.Errorf("temporal: record allocation %s: %w", a.Prefix, err)
		}
		in.Allocations = append(in.Allocations, rec)
	}
	for _, t := range doc.Transfers {
		rec := TransferRecord{From: t.From, To: t.To, Type: t.Type, PricePerAddr: t.PricePerAddr}
		if rec.Prefix, err = netblock.ParsePrefix(t.Prefix); err != nil {
			return nil, fmt.Errorf("temporal: record transfer: %w", err)
		}
		if rec.FromRIR, err = registry.ParseRIR(t.FromRIR); err != nil {
			return nil, fmt.Errorf("temporal: record transfer %s: %w", t.Prefix, err)
		}
		if rec.ToRIR, err = registry.ParseRIR(t.ToRIR); err != nil {
			return nil, fmt.Errorf("temporal: record transfer %s: %w", t.Prefix, err)
		}
		if rec.Date, err = parseDay(t.Date); err != nil {
			return nil, fmt.Errorf("temporal: record transfer %s: %w", t.Prefix, err)
		}
		in.Transfers = append(in.Transfers, rec)
	}
	for _, l := range doc.Leases {
		rec := LeaseRecord{FromAS: l.FromAS, ToAS: l.ToAS}
		if rec.Parent, err = netblock.ParsePrefix(l.Parent); err != nil {
			return nil, fmt.Errorf("temporal: record lease: %w", err)
		}
		if rec.Child, err = netblock.ParsePrefix(l.Child); err != nil {
			return nil, fmt.Errorf("temporal: record lease: %w", err)
		}
		if rec.Start, err = parseDay(l.Start); err != nil {
			return nil, fmt.Errorf("temporal: record lease %s: %w", l.Child, err)
		}
		if l.End != "" {
			if rec.End, err = parseDay(l.End); err != nil {
				return nil, fmt.Errorf("temporal: record lease %s: %w", l.Child, err)
			}
		}
		in.Leases = append(in.Leases, rec)
	}
	return New(in)
}

// parseDay parses a YYYY-MM-DD date as UTC midnight.
func parseDay(s string) (time.Time, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return time.Time{}, fmt.Errorf("date %q: want YYYY-MM-DD", s)
	}
	return t, nil
}
