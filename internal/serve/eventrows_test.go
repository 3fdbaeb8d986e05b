package serve

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ipv4market/internal/temporal"
)

// asofDiffView is the GET /v1/asof/diff document: the events in (from, to]
// — exactly what turns the as-of state at `from` into the state at `to`.
type asofDiffView struct {
	From   string          `json:"from"`
	To     string          `json:"to"`
	Gen    uint64          `json:"gen,omitempty"`
	Count  int             `json:"count"`
	Events []asofEventView `json:"events"`
}

// referenceAsofDiff is the row-at-a-time reference the event-row table
// must reproduce: the whole diff document built as one view and encoded
// by newArtifact, as every diff was rendered before the table existed.
func referenceAsofDiff(ix *temporal.Index, gen uint64, from, to time.Time) (*artifact, error) {
	events := ix.Diff(from, to)
	view := asofDiffView{
		From: fmtDate(from), To: fmtDate(to), Gen: gen,
		Count:  len(events),
		Events: make([]asofEventView, 0, len(events)),
	}
	for _, e := range events {
		ev := asofEventView{Date: fmtDate(e.Date), Kind: string(e.Kind), Prefix: e.Prefix.String()}
		switch e.Kind {
		case temporal.EventTransfer:
			ev.From, ev.To = e.From, e.To
			ev.FromRIR, ev.ToRIR = e.FromRIR.String(), e.ToRIR.String()
			ev.Type = e.Type
			ev.PricePerAddr = e.PricePerAddr
		default:
			ev.Parent = e.Parent.String()
			ev.FromAS, ev.ToAS = e.FromAS, e.ToAS
		}
		view.Events = append(view.Events, ev)
	}
	return newArtifact(view, nil)
}

// FuzzAsofDiffWindow explores diff windows of the test world, given as two
// day offsets into its epoch: the handler, a cold event-row table and the
// snapshot's warm one must all answer the reference's body and ETag, and a
// window whose end precedes its start must answer 400.
func FuzzAsofDiffWindow(f *testing.F) {
	srv := sharedServer(f)
	snap := srv.Snapshot()
	ix := snap.Temporal
	days := int(ix.End().Sub(ix.Start()) / (24 * time.Hour))
	first := int(ix.Event(0).Date.Sub(ix.Start()) / (24 * time.Hour))
	for _, seed := range [][2]int{
		{0, 0}, {0, days - 1}, {days - 1, 0}, {first - 1, first}, {first, first},
		{days / 2, days/2 + 1}, {days / 3, 2 * days / 3}, {days - 2, days - 1},
	} {
		f.Add(uint16(max(seed[0], 0)), uint16(max(seed[1], 0)))
	}
	h := srv.Handler()
	f.Fuzz(func(t *testing.T, fromOff, toOff uint16) {
		from := ix.Start().AddDate(0, 0, int(fromOff)%days)
		to := ix.Start().AddDate(0, 0, int(toOff)%days)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet,
			"/v1/asof/diff?from="+fmtDate(from)+"&to="+fmtDate(to), nil))
		if to.Before(from) {
			if rec.Code != http.StatusBadRequest {
				t.Fatalf("(%s, %s]: status %d, want 400", fmtDate(from), fmtDate(to), rec.Code)
			}
			return
		}
		want, err := referenceAsofDiff(ix, snap.Gen, from, to)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Code != http.StatusOK || rec.Header().Get("ETag") != want.jsonETag || !bytes.Equal(rec.Body.Bytes(), want.json) {
			t.Fatalf("(%s, %s]: handler answers %d with ETag %s, want the reference's %s",
				fmtDate(from), fmtDate(to), rec.Code, rec.Header().Get("ETag"), want.jsonETag)
		}
		for name, rows := range map[string]*eventRows{"cold": newEventRows(ix), "warm": snap.eventRows} {
			got, err := rows.diff(snap.Gen, from, to)
			if err != nil {
				t.Fatal(err)
			}
			if got.jsonETag != want.jsonETag || !bytes.Equal(got.json, want.json) {
				t.Fatalf("(%s, %s]: %s rows render\n%s\nwant\n%s", fmtDate(from), fmtDate(to), name, got.json, want.json)
			}
		}
	})
}
