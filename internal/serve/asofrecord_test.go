package serve_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"ipv4market/internal/temporal"
)

// The ref* types mirror the _state/temporal record schema field for
// field, so this package can encode a reference record through
// json.Marshal from an index's exported normalized input.
type refRecord struct {
	Version     int           `json:"version"`
	Start       string        `json:"start"`
	End         string        `json:"end"`
	Allocations []refAlloc    `json:"allocations"`
	Transfers   []refTransfer `json:"transfers"`
	Leases      []refLease    `json:"leases"`
}

type refAlloc struct {
	Prefix string `json:"prefix"`
	Org    string `json:"org"`
	RIR    string `json:"rir"`
	Date   string `json:"date"`
	Status string `json:"status,omitempty"`
}

type refTransfer struct {
	Prefix       string  `json:"prefix"`
	From         string  `json:"from"`
	To           string  `json:"to"`
	FromRIR      string  `json:"from_rir"`
	ToRIR        string  `json:"to_rir"`
	Type         string  `json:"type"`
	Date         string  `json:"date"`
	PricePerAddr float64 `json:"price_per_addr,omitempty"`
}

type refLease struct {
	Parent string `json:"parent"`
	Child  string `json:"child"`
	FromAS uint32 `json:"from_as"`
	ToAS   uint32 `json:"to_as"`
	Start  string `json:"start"`
	End    string `json:"end,omitempty"`
}

// marshalRecordRef encodes ix's normalized input as json.Marshal writes
// the record schema.
func marshalRecordRef(ix *temporal.Index) ([]byte, error) {
	day := func(t time.Time) string {
		if t.IsZero() {
			return ""
		}
		return t.Format("2006-01-02")
	}
	in := ix.Input()
	doc := refRecord{
		Version:     1,
		Start:       day(in.Start),
		End:         day(in.End),
		Allocations: make([]refAlloc, len(in.Allocations)),
		Transfers:   make([]refTransfer, len(in.Transfers)),
		Leases:      make([]refLease, len(in.Leases)),
	}
	for i, a := range in.Allocations {
		doc.Allocations[i] = refAlloc{a.Prefix.String(), a.Org, a.RIR.String(), day(a.Date), a.Status}
	}
	for i, t := range in.Transfers {
		doc.Transfers[i] = refTransfer{t.Prefix.String(), t.From, t.To, t.FromRIR.String(), t.ToRIR.String(),
			t.Type, day(t.Date), t.PricePerAddr}
	}
	for i, l := range in.Leases {
		doc.Leases[i] = refLease{l.Parent.String(), l.Child.String(), l.FromAS, l.ToAS, day(l.Start), day(l.End)}
	}
	return json.Marshal(doc)
}

// TestRecordMatchesMarshalWorlds checks temporal's record encoder against
// json.Marshal of the record schema on the production-scale worlds —
// DefaultConfig and every examples/scenarios spec, churnstorm included —
// where internal/temporal's TestRecordMatchesMarshal covers synthetic
// histories and odd strings and prices.
func TestRecordMatchesMarshalWorlds(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	for _, w := range productionWorlds(t) {
		ix := w.srv.Snapshot().Temporal
		got, err := ix.Record()
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want, err := marshalRecordRef(ix)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: Record (%d bytes) differs from json.Marshal of the record schema (%d bytes)",
				w.name, len(got), len(want))
		}
	}
}
