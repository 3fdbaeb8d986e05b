package serve_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"ipv4market/internal/netblock"
	"ipv4market/internal/simulation"
	"ipv4market/internal/stats"
)

// TestQueryETagsGolden is the byte oracle for computed responses: for
// each production-scale world it sweeps /v1/asof point, timeline and
// diff, delegation-lookup and filtered-price requests keyed from the
// world's own transfer log, and compares every response's ETag with
// testdata/queries.golden. Unlike the naive-replay property tests, which
// compare result sets, it fails on any change in the order of a
// response's delegation lists. Regenerate with -update-etags only for a
// change that means to move bytes.
func TestQueryETagsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	var got bytes.Buffer
	multiCovered, anyCovering := false, false
	for _, w := range productionWorlds(t) {
		h := w.srv.Handler()
		for _, path := range querySweep(w.cfg, servedTransfers(t, h)) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
			if rec.Code != http.StatusOK {
				t.Fatalf("%s %s: status %d: %s", w.name, path, rec.Code, rec.Body)
			}
			fmt.Fprintf(&got, "%s %s %s\n", w.name, path, rec.Header().Get("ETag"))
			if strings.HasPrefix(path, "/v1/asof?") {
				var doc struct {
					Covering []json.RawMessage `json:"delegations_covering"`
					Covered  []json.RawMessage `json:"delegations_covered"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Fatalf("%s %s: %v", w.name, path, err)
				}
				multiCovered = multiCovered || len(doc.Covered) > 1
				anyCovering = anyCovering || len(doc.Covering) > 0
			}
		}
	}
	// The sweep must reach the lists whose order it pins.
	if !multiCovered || !anyCovering {
		t.Fatalf("sweep never answers several covered (%v) or any covering (%v) delegations", multiCovered, anyCovering)
	}
	checkGolden(t, filepath.Join("testdata", "queries.golden"), got.Bytes())
}

// sweepKeys is about how many transfers of each world key the sweep.
const sweepKeys = 24

// sweepTransfer is what the sweep reads of one transfer-log entry.
type sweepTransfer struct {
	prefix netblock.Prefix
	date   time.Time
	toRIR  string
}

// servedTransfers decodes the world's transfer log, in log order, from
// its served /v1/transfers document.
func servedTransfers(t *testing.T, h http.Handler) []sweepTransfer {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/transfers", nil))
	var doc struct {
		Transfers []struct {
			Prefix string `json:"prefix"`
			Date   string `json:"date"`
			ToRIR  string `json:"to_rir"`
		} `json:"transfers"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("/v1/transfers: %v", err)
	}
	out := make([]sweepTransfer, len(doc.Transfers))
	for i, tr := range doc.Transfers {
		p, err := netblock.ParsePrefix(tr.Prefix)
		if err != nil {
			t.Fatal(err)
		}
		d, err := time.Parse("2006-01-02", tr.Date)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = sweepTransfer{p, d, tr.ToRIR}
	}
	return out
}

// querySweep derives a deterministic request list from a world's
// transfer log: for every stride-th transfer, point lookups of the block,
// its /16, its /8 and its first /24 on the transfer date and on a day of
// the routing window (where delegations live), timelines, a diff window
// ending on the transfer date, delegation lookups, and the price cell of
// the block's size, receiving region and quarter.
func querySweep(cfg simulation.Config, transfers []sweepTransfer) []string {
	clamp := func(d time.Time) time.Time {
		if d.Before(cfg.HistoryStart) {
			return cfg.HistoryStart
		}
		if !d.Before(cfg.MarketEnd) {
			return cfg.MarketEnd.AddDate(0, 0, -1)
		}
		return d
	}
	day := func(d time.Time) string { return d.Format("2006-01-02") }
	stride := len(transfers)/sweepKeys + 1
	var out []string
	for i := 0; i < len(transfers); i += stride {
		tr := transfers[i]
		p := tr.prefix
		within16, within8, inside := p, netblock.MustPrefix(p.Addr(), 8), p
		if p.Bits() > 16 {
			within16 = netblock.MustPrefix(p.Addr(), 16)
		}
		if p.Bits() < 24 {
			inside = netblock.MustPrefix(p.Addr(), 24)
		}
		routing := cfg.RoutingStart.AddDate(0, 0, (i*37)%cfg.RoutingDays)
		for _, d := range []time.Time{clamp(tr.date), clamp(routing)} {
			for _, q := range []netblock.Prefix{p, within16, within8, inside} {
				out = append(out, "/v1/asof?date="+day(d)+"&prefix="+q.String())
			}
		}
		out = append(out,
			"/v1/asof/timeline?prefix="+p.String(),
			"/v1/asof/timeline?prefix="+within16.String(),
			"/v1/asof/diff?from="+day(clamp(tr.date.AddDate(0, 0, -30)))+"&to="+day(clamp(tr.date)),
			"/v1/delegations?prefix="+p.String(),
			"/v1/delegations?prefix="+within16.String(),
			fmt.Sprintf("/v1/prices?size=/%d&region=%s&quarter=%s",
				p.Bits(), url.QueryEscape(tr.toRIR), stats.QuarterOf(tr.date)),
		)
	}
	return out
}
