package serve_test

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"ipv4market/internal/serve"
	"ipv4market/internal/store"
	"ipv4market/internal/temporal"
)

// diffWindow is one (from, to] window of a diff identity check.
type diffWindow struct {
	name     string
	from, to time.Time
}

// diffWindows derives the windows TestAsofDiffRowsMatchView checks from a
// world's own event stream: empty windows, a one-event day, the busiest
// day, windows across every year boundary, the whole epoch, and windows
// ending at event-row block edges. It fails the test when the world has
// no day with exactly one event.
func diffWindows(t *testing.T, ix *temporal.Index) []diffWindow {
	t.Helper()
	start, end := ix.Start(), ix.End().AddDate(0, 0, -1)
	clamp := func(d time.Time) time.Time {
		if d.Before(start) {
			return start
		}
		if d.After(end) {
			return end
		}
		return d
	}
	perDay := make(map[time.Time]int)
	var days []time.Time // distinct event dates, ascending
	for i := 0; i < ix.EventCount(); i++ {
		d := ix.Event(i).Date
		if perDay[d] == 0 {
			days = append(days, d)
		}
		perDay[d]++
	}
	if len(days) == 0 {
		t.Fatal("world has no events")
	}
	first := days[0]
	busiest, single := first, time.Time{}
	for _, d := range days {
		if perDay[d] > perDay[busiest] {
			busiest = d
		}
		if single.IsZero() && perDay[d] == 1 && d.After(start) {
			single = d
		}
	}
	if single.IsZero() {
		t.Fatal("world has no day with exactly one event")
	}
	ws := []diffWindow{
		{"before the first event", start, clamp(first.AddDate(0, 0, -1))},
		{"from == to on an event day", busiest, busiest},
		{"from == to at the epoch start", start, start},
		{"one event", single.AddDate(0, 0, -1), single},
		{"same day, busiest", clamp(busiest.AddDate(0, 0, -1)), busiest},
		{"whole epoch", start, end},
	}
	for y := start.Year(); y < end.Year(); y++ {
		ws = append(ws, diffWindow{fmt.Sprintf("across %d/%d", y, y+1),
			clamp(time.Date(y, 12, 15, 0, 0, 0, 0, time.UTC)),
			clamp(time.Date(y+1, 1, 15, 0, 0, 0, 0, time.UTC))})
	}
	for i := serve.EventRowBlock - 1; i < ix.EventCount(); i += 7 * serve.EventRowBlock {
		d := ix.Event(i).Date
		ws = append(ws, diffWindow{fmt.Sprintf("block edge at event %d", i), clamp(d.AddDate(0, 0, -20)), d})
	}
	return ws
}

// TestAsofDiffRowsMatchView pins /v1/asof/diff to the row-at-a-time
// reference (serve.AsofDiffReference: the whole document as one view
// through the one JSON encoder) on DefaultConfig and each
// examples/scenarios world: for every window of diffWindows, the
// handler, a cold event-row table and the same table warm answer the
// reference's exact body and ETag, at generation 0 (storeless), at the
// generation a store-backed server restored, and for a ?gen= pinned
// generation loaded from the store. Goroutines rendering the same cold
// rows at once (run under -race by scripts/check.sh) must each answer
// the reference too.
func TestAsofDiffRowsMatchView(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three production-scale worlds")
	}
	check := func(t *testing.T, label string, got []byte, etag string, want []byte, wantETag string) {
		t.Helper()
		if etag != wantETag || !bytes.Equal(got, want) {
			t.Fatalf("%s: ETag %s (%d bytes), want the reference's %s (%d bytes)", label, etag, len(got), wantETag, len(want))
		}
	}
	get := func(t *testing.T, h http.Handler, path string) ([]byte, string) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
		}
		return rec.Body.Bytes(), rec.Header().Get("ETag")
	}
	day := func(d time.Time) string { return d.Format("2006-01-02") }
	path := func(w diffWindow) string { return "/v1/asof/diff?from=" + day(w.from) + "&to=" + day(w.to) }

	for _, world := range productionWorlds(t) {
		t.Run(world.name, func(t *testing.T) {
			snap := world.srv.Snapshot()
			ix := snap.Temporal
			windows := diffWindows(t, ix)
			h := world.srv.Handler()
			for _, w := range windows {
				want, wantETag, err := serve.AsofDiffReference(ix, snap.Gen, w.from, w.to)
				if err != nil {
					t.Fatal(err)
				}
				rows := serve.NewDiffRows(ix)
				for _, temp := range []string{"cold", "warm"} {
					got, etag, err := rows(snap.Gen, w.from, w.to)
					if err != nil {
						t.Fatal(err)
					}
					check(t, w.name+", "+temp+" rows", got, etag, want, wantETag)
				}
				got, etag := get(t, h, path(w))
				check(t, w.name+", handler", got, etag, want, wantETag)
			}

			// Many goroutines render the same cold rows at once.
			whole := diffWindow{"whole epoch", ix.Start(), ix.End().AddDate(0, 0, -1)}
			want, wantETag, err := serve.AsofDiffReference(ix, snap.Gen, whole.from, whole.to)
			if err != nil {
				t.Fatal(err)
			}
			rows := serve.NewDiffRows(ix)
			const renderers = 8
			var wg sync.WaitGroup
			got := make([][]byte, renderers)
			etags := make([]string, renderers)
			errs := make([]error, renderers)
			ready := make(chan struct{})
			for i := 0; i < renderers; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-ready
					got[i], etags[i], errs[i] = rows(snap.Gen, whole.from, whole.to)
				}()
			}
			close(ready)
			wg.Wait()
			for i := range got {
				if errs[i] != nil {
					t.Fatal(errs[i])
				}
				check(t, fmt.Sprintf("concurrent cold render %d", i), got[i], etags[i], want, wantETag)
			}
		})
	}

	// Generation N and a pinned generation: the default world persisted
	// twice into a store and restored by a store-backed server, which then
	// serves generation 2 and loads generation 1 for ?gen=1.
	t.Run("store", func(t *testing.T) {
		world := productionWorlds(t)[0]
		st, err := store.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		for want := uint64(1); want <= 2; want++ {
			if gen, err := serve.Persist(st, world.srv.Snapshot()); err != nil || gen != want {
				t.Fatalf("persist: generation %d, %v; want %d", gen, err, want)
			}
		}
		srv, err := serve.New(world.cfg, serve.Options{Store: st})
		if err != nil {
			t.Fatal(err)
		}
		if !srv.WarmStarted() || srv.Snapshot().Gen != 2 {
			t.Fatalf("serving generation %d (warm start %v), want a restored generation 2", srv.Snapshot().Gen, srv.WarmStarted())
		}
		ix := srv.Snapshot().Temporal
		h := srv.Handler()
		for _, w := range diffWindows(t, ix) {
			for _, c := range []struct {
				gen uint64
				pin string
			}{{2, ""}, {2, "&gen=2"}, {1, "&gen=1"}} {
				want, wantETag, err := serve.AsofDiffReference(ix, c.gen, w.from, w.to)
				if err != nil {
					t.Fatal(err)
				}
				got, etag := get(t, h, path(w)+c.pin)
				check(t, fmt.Sprintf("%s, generation %d%s", w.name, c.gen, c.pin), got, etag, want, wantETag)
			}
		}
	})
}
