package temporal

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"testing"
	"time"

	"ipv4market/internal/registry"
)

// marshalRecord is the reference encoding of Record: the history's
// recordDoc through json.Marshal. Record must produce exactly its bytes,
// and fail where it fails.
func marshalRecord(ix *Index) ([]byte, error) {
	in := ix.Input()
	doc := recordDoc{
		Version:     recordVersion,
		Start:       fmtDay(in.Start),
		End:         fmtDay(in.End),
		Allocations: make([]allocRec, 0, len(in.Allocations)),
		Transfers:   make([]transferRec, 0, len(in.Transfers)),
		Leases:      make([]leaseRec, 0, len(in.Leases)),
	}
	for _, a := range in.Allocations {
		doc.Allocations = append(doc.Allocations, allocRec{
			Prefix: a.Prefix.String(), Org: a.Org, RIR: a.RIR.String(),
			Date: fmtDay(a.Date), Status: a.Status,
		})
	}
	for _, t := range in.Transfers {
		doc.Transfers = append(doc.Transfers, transferRec{
			Prefix: t.Prefix.String(), From: t.From, To: t.To,
			FromRIR: t.FromRIR.String(), ToRIR: t.ToRIR.String(),
			Type: t.Type, Date: fmtDay(t.Date), PricePerAddr: t.PricePerAddr,
		})
	}
	for _, l := range in.Leases {
		doc.Leases = append(doc.Leases, leaseRec{
			Parent: l.Parent.String(), Child: l.Child.String(),
			FromAS: l.FromAS, ToAS: l.ToAS,
			Start: fmtDay(l.Start), End: fmtDay(l.End),
		})
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return nil, fmt.Errorf("temporal: encode record: %w", err)
	}
	return b, nil
}

// checkRecord asserts that Record and the json.Marshal reference agree on
// ix: the same bytes, or both an error with the same message.
func checkRecord(t testing.TB, name string, ix *Index) {
	t.Helper()
	got, gotErr := ix.Record()
	want, wantErr := marshalRecord(ix)
	switch {
	case gotErr != nil || wantErr != nil:
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Errorf("%s: Record error %v, json.Marshal error %v", name, gotErr, wantErr)
		}
	case !bytes.Equal(got, want):
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		t.Errorf("%s: Record differs from json.Marshal at byte %d of %d/%d:\n  record:  %q\n  marshal: %q",
			name, i, len(got), len(want), window(got, i), window(want, i))
	}
}

// window returns up to 40 bytes of b on either side of i.
func window(b []byte, i int) []byte {
	return b[max(i-40, 0):min(i+40, len(b))]
}

// oddStrings are org, status and type strings that exercise every escape
// encoding/json makes: quotes, backslashes, the HTML-sensitive bytes,
// every control-byte form, non-ASCII text, invalid UTF-8 (lone bytes and
// a truncated sequence) and the two JavaScript line separators.
var oddStrings = []string{
	"", "plain", `say "hi"`, `back\slash`, "<script>&amp;</script>",
	"nul\x00 soh\x01 us\x1f del\x7f", "\b\f\n\r\t", "Zürich – 東京 🌐",
	"bad \xff\xfe bytes", "cut \xe2\x82", "sep\u2028para\u2029end", "\u2027\u202a",
}

// oddInput is one history carrying oddStrings in allocation orgs and
// statuses and in transfer parties and types, and price in every
// transfer.
func oddInput(t testing.TB, price float64) Input {
	t.Helper()
	in := Input{Start: onDay(t, "2005-01-01"), End: onDay(t, "2020-07-01")}
	for i, s := range oddStrings {
		p := pfx(t, fmt.Sprintf("10.%d.0.0/16", i))
		q := pfx(t, fmt.Sprintf("20.%d.0.0/16", i))
		in.Allocations = append(in.Allocations,
			AllocationRecord{Prefix: p, Org: s, RIR: registry.RIR(i % 5), Date: onDay(t, "1999-03-04"), Status: s},
			AllocationRecord{Prefix: q, Org: "to " + s, RIR: registry.ARIN, Date: onDay(t, "2014-02-03")})
		in.Transfers = append(in.Transfers, TransferRecord{
			Prefix: q, From: s, To: "to " + s, FromRIR: registry.RIPENCC, ToRIR: registry.ARIN,
			Type: s, Date: onDay(t, "2014-02-03"), PricePerAddr: price,
		})
	}
	return in
}

// TestRecordMatchesMarshal holds Record's append encoder to json.Marshal
// of the recordDoc, byte for byte: on the synthetic histories, on strings
// needing every kind of escape, and on prices at and around the float
// format's exponent cutoffs, where NaN and +Inf must fail as json.Marshal
// does. DefaultConfig and the churnstorm scenario are checked from
// internal/serve (TestRecordMatchesMarshalWorlds).
func TestRecordMatchesMarshal(t *testing.T) {
	checkRecord(t, "fixture", mustNew(t, fixtureInput(t)))
	checkRecord(t, "synth x1", mustNew(t, synthInput(t, 800, 4, 1000)))

	for _, price := range []float64{
		0, 1e-7, 1e-6, 9.99e-7, 1e20, 1e21, 0.1, -0.0, -1.5, 25, 123456789.125,
		5e-324, math.MaxFloat64, -1e-9, math.NaN(), math.Inf(1), math.Inf(-1),
	} {
		ix := mustNew(t, oddInput(t, price))
		checkRecord(t, fmt.Sprintf("price %v", price), ix)
		if _, err := ix.Record(); (err != nil) != (math.IsNaN(price) || math.IsInf(price, 0)) {
			t.Errorf("price %v: Record error %v", price, err)
		}
	}
}

// FuzzRecordMatchesMarshal is TestRecordMatchesMarshal over arbitrary
// strings, prices, AS numbers and dates, years outside 0–9999 included.
func FuzzRecordMatchesMarshal(f *testing.F) {
	for i, s := range oddStrings {
		f.Add(s, oddStrings[len(oddStrings)-1-i], 0.1*float64(i), uint32(i), int64(i*1000))
	}
	f.Add("a", "b", 1e-7, uint32(4294967295), int64(-800000))
	f.Add("a", "b", 1e21, uint32(64496), int64(3000000))
	f.Fuzz(func(t *testing.T, org, typ string, price float64, as uint32, offset int64) {
		start, end := time.Date(2005, 1, 1, 0, 0, 0, 0, time.UTC), time.Date(2020, 7, 1, 0, 0, 0, 0, time.UTC)
		p, q := pfx(t, "10.0.0.0/16"), pfx(t, "20.0.0.0/16")
		in := Input{
			Start: start, End: end,
			Allocations: []AllocationRecord{
				{Prefix: p, Org: org, RIR: registry.RIR(as % 7), Date: start.AddDate(0, 0, int(offset%5000000)), Status: typ},
				{Prefix: q, Org: typ, RIR: registry.APNIC, Date: start},
			},
			Transfers: []TransferRecord{{
				Prefix: q, From: org, To: typ, Type: typ, Date: start.AddDate(1, 0, 0), PricePerAddr: price,
			}},
			Leases: []LeaseRecord{{
				Parent: q, Child: pfx(t, "20.0.1.0/24"), FromAS: as, ToAS: ^as,
				Start: start.AddDate(0, 0, int(offset%6000)), End: end.AddDate(0, 0, -int(offset%3000)),
			}},
		}
		ix, err := New(in)
		if err != nil {
			return // an inconsistent history has no record
		}
		checkRecord(t, "fuzz", ix)
	})
}
