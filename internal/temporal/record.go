package temporal

import (
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"time"
	"unicode/utf8"

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
// compare equal. Record writes them in one append pass into a buffer
// sized up front instead of building the document and marshalling it
// through reflection; TestRecordMatchesMarshal and its fuzz twin hold
// the two encoders to the same bytes.
func (ix *Index) Record() ([]byte, error) {
	in := &ix.in
	b := make([]byte, 0, recordSize(in))
	b = append(b, `{"version":`...)
	b = strconv.AppendInt(b, recordVersion, 10)
	b = append(b, `,"start":`...)
	b = appendDay(b, in.Start)
	b = append(b, `,"end":`...)
	b = appendDay(b, in.End)

	b = append(b, `,"allocations":[`...)
	for i := range in.Allocations {
		a := &in.Allocations[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPrefix(b, `{"prefix":`, a.Prefix)
		b = append(b, `,"org":`...)
		b = appendString(b, a.Org)
		b = append(b, `,"rir":`...)
		b = appendString(b, a.RIR.String())
		b = append(b, `,"date":`...)
		b = appendDay(b, a.Date)
		if a.Status != "" {
			b = append(b, `,"status":`...)
			b = appendString(b, a.Status)
		}
		b = append(b, '}')
	}

	b = append(b, `],"transfers":[`...)
	for i := range in.Transfers {
		t := &in.Transfers[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPrefix(b, `{"prefix":`, t.Prefix)
		b = append(b, `,"from":`...)
		b = appendString(b, t.From)
		b = append(b, `,"to":`...)
		b = appendString(b, t.To)
		b = append(b, `,"from_rir":`...)
		b = appendString(b, t.FromRIR.String())
		b = append(b, `,"to_rir":`...)
		b = appendString(b, t.ToRIR.String())
		b = append(b, `,"type":`...)
		b = appendString(b, t.Type)
		b = append(b, `,"date":`...)
		b = appendDay(b, t.Date)
		//lint:ignore floatcmp omitempty omits exactly the zero float, -0 included
		if t.PricePerAddr != 0 {
			b = append(b, `,"price_per_addr":`...)
			var err error
			if b, err = appendFloat(b, t.PricePerAddr); err != nil {
				return nil, fmt.Errorf("temporal: encode record: %w", err)
			}
		}
		b = append(b, '}')
	}

	b = append(b, `],"leases":[`...)
	for i := range in.Leases {
		l := &in.Leases[i]
		if i > 0 {
			b = append(b, ',')
		}
		b = appendPrefix(b, `{"parent":`, l.Parent)
		b = appendPrefix(b, `,"child":`, l.Child)
		b = append(b, `,"from_as":`...)
		b = strconv.AppendUint(b, uint64(l.FromAS), 10)
		b = append(b, `,"to_as":`...)
		b = strconv.AppendUint(b, uint64(l.ToAS), 10)
		b = append(b, `,"start":`...)
		b = appendDay(b, l.Start)
		if !l.End.IsZero() {
			b = append(b, `,"end":`...)
			b = appendDay(b, l.End)
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
func recordSize(in *Input) int {
	const (
		head     = 128
		perAlloc = 96  // fixed bytes of one allocation, RIR name included
		perXfer  = 168 // of one transfer, both RIR names and the price included
		perLease = 144
	)
	n := head + perAlloc*len(in.Allocations) + perXfer*len(in.Transfers) + perLease*len(in.Leases)
	for i := range in.Allocations {
		n += len(in.Allocations[i].Org) + len(in.Allocations[i].Status)
	}
	for i := range in.Transfers {
		t := &in.Transfers[i]
		n += len(t.From) + len(t.To) + len(t.Type)
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

// appendDay appends fmtDay(t) as a JSON string: YYYY-MM-DD, or "" for the
// zero time.
func appendDay(b []byte, t time.Time) []byte {
	b = append(b, '"')
	if !t.IsZero() {
		if y, m, d := t.Date(); y >= 0 && y <= 9999 {
			b = append(b,
				byte('0'+y/1000), byte('0'+y/100%10), byte('0'+y/10%10), byte('0'+y%10), '-',
				byte('0'+m/10), byte('0'+m%10), '-',
				byte('0'+d/10), byte('0'+d%10))
		} else {
			b = t.AppendFormat(b, "2006-01-02")
		}
	}
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

// appendString appends s as encoding/json writes a string: quoted, with
// quotes and backslashes backslash-escaped, control bytes as \b \f \n \r \t or
// \u00XX, '<', '>' and '&' as \u003c \u003e \u0026, invalid UTF-8 as
// \ufffd, and U+2028 and U+2029 as \u2028 and \u2029.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// representation, in exponent form below 1e-6 or from 1e21 in magnitude,
// with a one-digit negative exponent unpadded. NaN and ±Inf are
// encoding/json's UnsupportedValueError.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		_, err := json.Marshal(f)
		return b, err
	}
	format := byte('f')
	//lint:ignore floatcmp encoding/json keeps exact zero out of exponent form
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-09 → e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
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
