package serve

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
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

// TestSnapshotRecordRestoreRoundTrip checks the persist bridge in
// isolation: flattening a snapshot to store artifacts and restoring it
// yields identical artifact bytes, ETags, and query state.
func TestSnapshotRecordRestoreRoundTrip(t *testing.T) {
	cfg := testConfig()
	snap, err := BuildSnapshot(cfg)
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
	if got.TransferTotal() != snap.TransferTotal() {
		t.Errorf("restored %d transfers, want %d", got.TransferTotal(), snap.TransferTotal())
	}
}

// TestAssembleArtifactsRejectsTamperedBody proves the ETag check in the
// restore path: a body that does not match its stored ETag is refused
// (defense in depth beyond the store's CRCs).
func TestAssembleArtifactsRejectsTamperedBody(t *testing.T) {
	snap, err := BuildSnapshot(testConfig())
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
