package serve

import (
	"bytes"
	"cmp"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"ipv4market/internal/store"
)

// openStore opens a durable store under a fresh temp directory (or the
// given one, for restart tests that reopen the same data).
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatalf("store.Open(%s): %v", dir, err)
	}
	return st
}

// TestSnapshotRecordKeyOrder pins the segment layout: snapshotRecord
// lists the served artifacts in ascending key order, JSON before CSV
// under one key, ahead of the state artifacts, so same-seed rebuilds
// write the same segment bytes. The artifacts come out of a map, whose
// iteration order is random, so a missing sort fails every call here
// but by vanishing chance.
func TestSnapshotRecordKeyOrder(t *testing.T) {
	snap := sharedServer(t).Snapshot()
	for range 3 {
		_, arts, err := snapshotRecord(snap)
		if err != nil {
			t.Fatal(err)
		}
		served := 0
		for served < len(arts) && !strings.HasPrefix(arts[served].Key, statePrefix) {
			served++
		}
		for _, a := range arts[served:] {
			if !strings.HasPrefix(a.Key, statePrefix) {
				t.Fatalf("served artifact %q follows the state artifacts", a.Key)
			}
		}
		if served < len(snap.static) {
			t.Fatalf("%d served artifacts for %d keys", served, len(snap.static))
		}
		for i := 1; i < served; i++ {
			a, b := arts[i-1], arts[i]
			if cmp.Or(strings.Compare(a.Key, b.Key), strings.Compare(a.ContentType, b.ContentType)) >= 0 {
				t.Fatalf("artifact %q (%s) listed before %q (%s)", a.Key, a.ContentType, b.Key, b.ContentType)
			}
		}
	}
}

// TestSnapshotRecordRestoreRoundTrip checks the persist bridge in
// isolation: flattening a snapshot to store artifacts and restoring it
// yields identical artifact bytes, ETags, and query state.
func TestSnapshotRecordRestoreRoundTrip(t *testing.T) {
	cfg := testConfig()
	snap, err := BuildSnapshotOpts(cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta, arts, err := snapshotRecord(snap)
	if err != nil {
		t.Fatal(err)
	}
	meta.Gen = 7 // Append would assign this; the bridge must carry it through.

	got, err := restoreSnapshot(meta, arts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got.Gen != 7 || got.Source != SourceStore {
		t.Fatalf("restored gen=%d source=%q, want gen=7 source=%q", got.Gen, got.Source, SourceStore)
	}
	if got.Cfg.Seed != cfg.Seed || got.Cfg.NumLIRs != cfg.NumLIRs || got.Cfg.RoutingDays != cfg.RoutingDays {
		t.Fatalf("restored cfg = seed=%d lirs=%d days=%d, want seed=%d lirs=%d days=%d",
			got.Cfg.Seed, got.Cfg.NumLIRs, got.Cfg.RoutingDays, cfg.Seed, cfg.NumLIRs, cfg.RoutingDays)
	}
	if len(got.static) != len(snap.static) {
		t.Fatalf("restored %d static artifacts, want %d", len(got.static), len(snap.static))
	}
	for key, want := range snap.static {
		art, ok := got.static[key]
		if !ok {
			t.Fatalf("restored snapshot lacks artifact %q", key)
		}
		if !bytes.Equal(art.json, want.json) || art.jsonETag != want.jsonETag {
			t.Errorf("artifact %q: JSON body or ETag differs after round trip", key)
		}
		if !bytes.Equal(art.csv, want.csv) || art.csvETag != want.csvETag {
			t.Errorf("artifact %q: CSV body or ETag differs after round trip", key)
		}
	}

	// Query state must round-trip exactly: re-encode both sides and
	// compare bytes (float equality without float comparison).
	wantCells, _ := json.Marshal(snap.PriceCells)
	gotCells, _ := json.Marshal(got.PriceCells)
	if !bytes.Equal(wantCells, gotCells) {
		t.Error("price cells differ after round trip")
	}
	if got.Delegations.Len() != snap.Delegations.Len() {
		t.Errorf("restored %d delegations, want %d", got.Delegations.Len(), snap.Delegations.Len())
	}
	if !got.Delegations.Date().Equal(snap.Delegations.Date()) {
		t.Errorf("restored delegation date %v, want %v", got.Delegations.Date(), snap.Delegations.Date())
	}

	// A built and a restored snapshot are one shape: the same identity
	// and build telemetry, and every piece of query state set.
	if got.TransferTotal() != snap.TransferTotal() || snap.TransferTotal() == 0 {
		t.Errorf("restored %d transfers, built %d", got.TransferTotal(), snap.TransferTotal())
	}
	if got.Workers != snap.Workers || got.BuildTime != snap.BuildTime {
		t.Errorf("restored workers=%d build=%v, built workers=%d build=%v",
			got.Workers, got.BuildTime, snap.Workers, snap.BuildTime)
	}
	if !reflect.DeepEqual(got.Stages, snap.Stages) {
		t.Errorf("restored stages %v, built %v", got.Stages, snap.Stages)
	}
	for name, s := range map[string]*Snapshot{"built": snap, "restored": got} {
		if s.prices == nil || s.Delegations == nil || s.Temporal == nil || s.eventRows == nil {
			t.Errorf("%s snapshot: prices=%v delegations=%v temporal=%v eventRows=%v, want all set",
				name, s.prices != nil, s.Delegations != nil, s.Temporal != nil, s.eventRows != nil)
		}
	}
}

// TestUnrestorableGeneration stores generations whose _state/temporal
// record is missing or corrupt and drives every path that loads a
// stored generation over them: adoption fails and keeps the served
// snapshot, ?gen= pinned reads answer an error document naming the
// failure (never a recovered panic), and warm start cold-builds.
func TestUnrestorableGeneration(t *testing.T) {
	cfg := testConfig()
	built, err := BuildSnapshotOpts(cfg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	meta, arts, err := snapshotRecord(built)
	if err != nil {
		t.Fatal(err)
	}
	variants := []struct {
		name string
		edit func(a store.Artifact) (store.Artifact, bool) // false: drop a
		want string
	}{
		{"missing", func(a store.Artifact) (store.Artifact, bool) {
			return a, a.Key != stateTemporal
		}, "missing " + stateTemporal},
		{"corrupt", func(a store.Artifact) (store.Artifact, bool) {
			if a.Key == stateTemporal {
				a.Body = []byte(`{"format":`)
			}
			return a, true
		}, "restore temporal index"},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			st := openStore(t, t.TempDir())
			srv, err := New(cfg, Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			served := srv.Snapshot().Gen
			var edited []store.Artifact
			for _, a := range arts {
				if a, keep := v.edit(a); keep {
					edited = append(edited, a)
				}
			}
			bad, err := st.Append(meta, edited)
			if err != nil {
				t.Fatal(err)
			}

			if err := srv.AdoptGeneration(bad.Gen); err == nil || !strings.Contains(err.Error(), v.want) {
				t.Errorf("AdoptGeneration(%d) = %v, want an error containing %q", bad.Gen, err, v.want)
			}
			if got := srv.Snapshot().Gen; got != served {
				t.Errorf("after a failed adoption the server serves generation %d, want %d", got, served)
			}

			gen := strconv.FormatUint(bad.Gen, 10)
			for _, path := range []string{
				"/v1/table1?gen=" + gen,
				"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16&gen=" + gen,
			} {
				rec := httptest.NewRecorder()
				srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
				var doc struct {
					Error string `json:"error"`
				}
				if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
					t.Fatalf("%s: body is not an error document: %v", path, err)
				}
				if rec.Code != http.StatusInternalServerError || !strings.Contains(doc.Error, v.want) {
					t.Errorf("%s: %d %q, want 500 naming %q", path, rec.Code, doc.Error, v.want)
				}
			}
			if n := srv.metrics.panics.Load(); n != 0 {
				t.Errorf("pinned reads of an unrestorable generation panicked %d times", n)
			}

			again, err := New(cfg, Options{Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if again.WarmStarted() || again.Snapshot().Gen != bad.Gen+1 {
				t.Errorf("restart over generation %d: warm=%v gen=%d, want a cold build persisted as %d",
					bad.Gen, again.WarmStarted(), again.Snapshot().Gen, bad.Gen+1)
			}
		})
	}
}

// TestAssembleArtifactsRejectsTamperedBody proves the ETag check in the
// restore path: a body that does not match its stored ETag is refused
// (defense in depth beyond the store's CRCs).
func TestAssembleArtifactsRejectsTamperedBody(t *testing.T) {
	snap, err := BuildSnapshotOpts(testConfig(), BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	_, arts, err := snapshotRecord(snap)
	if err != nil {
		t.Fatal(err)
	}
	for i := range arts {
		if arts[i].ETag != "" {
			arts[i].Body = append([]byte(nil), arts[i].Body...)
			arts[i].Body[0] ^= 0x01
			break
		}
	}
	if _, _, err := assembleArtifacts(arts); err == nil {
		t.Fatal("assembleArtifacts accepted a body that contradicts its ETag")
	}
}

// determinismPaths are the request shapes the warm/cold comparison
// drives: every static artifact, both encodings where they exist, and
// the filtered queries that are answered from restored state rather
// than stored bytes.
var determinismPaths = []string{
	"/v1/table1", "/v1/table1?format=csv",
	"/v1/figures/1", "/v1/figures/2", "/v1/figures/3", "/v1/figures/4",
	"/v1/prices", "/v1/prices?format=csv",
	"/v1/prices?size=/16",
	"/v1/prices?region=RIPE%20NCC",
	"/v1/prices?quarter=2019Q2",
	"/v1/prices?size=16&region=ARIN&quarter=2019Q4",
	"/v1/transfers",
	"/v1/delegations",
	"/v1/delegations?prefix=185.0.0.0/16",
	"/v1/delegations?prefix=8.8.8.0/24",
	"/v1/leasing",
	"/v1/headline",
	"/v1/asof?date=2019-06-01&prefix=185.0.0.0/16",
	"/v1/asof?date=2013-02-15&prefix=23.0.0.0/12",
	"/v1/asof/timeline?prefix=185.0.0.0/16",
	"/v1/asof/diff?from=2015-01-01&to=2015-12-31",
}

// TestWarmStartMatchesColdBuild is the restart-determinism acceptance
// test: a server warm-started from the store serves byte-identical
// bodies and ETags to the cold-built server that persisted them —
// including filtered queries, which are computed from restored state.
func TestWarmStartMatchesColdBuild(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()

	cold, err := New(cfg, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if cold.WarmStarted() {
		t.Fatal("cold server claims a warm start")
	}
	if got := cold.Snapshot().Gen; got != 1 {
		t.Fatalf("cold build persisted as generation %d, want 1", got)
	}

	warm, err := New(cfg, Options{Store: openStore(t, dir)})
	if err != nil {
		t.Fatal(err)
	}
	if !warm.WarmStarted() {
		t.Fatal("server with a populated store did not warm-start")
	}
	ws := warm.Snapshot()
	if ws.Gen != 1 || ws.Source != SourceStore {
		t.Fatalf("warm snapshot gen=%d source=%q, want gen=1 source=%q", ws.Gen, ws.Source, SourceStore)
	}

	tsCold := httptest.NewServer(cold.Handler())
	defer tsCold.Close()
	tsWarm := httptest.NewServer(warm.Handler())
	defer tsWarm.Close()

	for _, path := range determinismPaths {
		respC, bodyC := get(t, tsCold, path)
		respW, bodyW := get(t, tsWarm, path)
		if respC.StatusCode != 200 || respW.StatusCode != 200 {
			t.Errorf("%s: cold=%d warm=%d, want 200/200", path, respC.StatusCode, respW.StatusCode)
			continue
		}
		if !bytes.Equal(bodyC, bodyW) {
			t.Errorf("%s: warm body differs from cold body", path)
		}
		if ec, ew := respC.Header.Get("ETag"), respW.Header.Get("ETag"); ec != ew || ec == "" {
			t.Errorf("%s: ETag cold=%q warm=%q, want identical and non-empty", path, ec, ew)
		}
	}
}
