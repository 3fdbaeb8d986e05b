package replicate_test

// The end-to-end contract of replication: a follower synced from a live
// leader answers every artifact endpoint with byte- and ETag-identical
// bodies (304 continuity included), refuses local rebuilds, keeps
// serving through a leader outage, and catches up (lag 0) after the
// leader builds a new generation.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"ipv4market/internal/replicate"
	"ipv4market/internal/serve"
	"ipv4market/internal/simulation"
	"ipv4market/internal/store"
)

// e2eConfig keeps the simulation small so two builds stay fast.
func e2eConfig() simulation.Config {
	cfg := simulation.DefaultConfig()
	cfg.NumLIRs = 14
	cfg.RoutingDays = 40
	cfg.AdministrativeLeases = 120
	cfg.RoutedLeases = 50
	cfg.MonitorsPerCollector = 4
	cfg.SmallAssignmentsPerLIR = 10
	return cfg
}

// artifactPaths is every artifact endpoint whose bytes must replicate
// exactly — static artifacts and cache-rendered filtered queries alike.
var artifactPaths = []string{
	"/v1/table1",
	"/v1/table1?format=csv",
	"/v1/figures/1",
	"/v1/figures/2",
	"/v1/figures/3",
	"/v1/figures/4",
	"/v1/prices",
	"/v1/prices?size=24",
	"/v1/transfers",
	"/v1/delegations",
	"/v1/leasing",
	"/v1/headline",
}

func get(t *testing.T, base, path string) (int, []byte, string) {
	t.Helper()
	resp, err := http.Get(base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read: %v", path, err)
	}
	return resp.StatusCode, body, resp.Header.Get("ETag")
}

func TestLeaderFollowerEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("two snapshot builds in -short mode")
	}
	cfg := e2eConfig()

	// Leader: a store-backed serving stack with the replication
	// endpoints mounted, exactly as cmd/marketd wires it.
	leaderStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	leader := replicate.NewLeader(leaderStore)
	leaderSrv, err := serve.New(cfg, serve.Options{
		Store:           leaderStore,
		StoreKeep:       5,
		EnableAdmin:     true,
		ReplicationVarz: leader.Varz,
	})
	if err != nil {
		t.Fatal(err)
	}
	leaderSrv.Mount("GET /v1/replication/generations", leader.Generations(), time.Second)
	leaderSrv.Mount("GET /v1/replication/segment/{gen}", leader.Segment(), 0)
	leaderTS := httptest.NewServer(leaderSrv.Handler())
	defer leaderTS.Close()

	// Follower: sync one generation, then boot a serving stack in
	// follower mode over the replicated store.
	followerStore, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	repl, err := replicate.New(replicate.Options{
		LeaderURL: leaderTS.URL,
		Store:     followerStore,
		Interval:  10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := repl.SyncOnce(t.Context()); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	followerSrv, err := serve.New(cfg, serve.Options{
		Store:           followerStore,
		Follower:        true,
		EnableAdmin:     true,
		ReplicationVarz: repl.Varz,
	})
	if err != nil {
		t.Fatalf("follower boot: %v", err)
	}
	if !followerSrv.WarmStarted() {
		t.Fatal("follower did not boot from its replicated store")
	}
	repl.SetApply(func(m store.Meta) error { return followerSrv.AdoptGeneration(m.Gen) })
	followerTS := httptest.NewServer(followerSrv.Handler())
	defer followerTS.Close()

	// Byte and ETag identity across every artifact endpoint.
	leaderBodies := make(map[string][]byte)
	leaderETags := make(map[string]string)
	for _, path := range artifactPaths {
		code, body, etag := get(t, leaderTS.URL, path)
		if code != http.StatusOK {
			t.Fatalf("leader GET %s: status %d", path, code)
		}
		leaderBodies[path], leaderETags[path] = body, etag
		fcode, fbody, fetag := get(t, followerTS.URL, path)
		if fcode != http.StatusOK {
			t.Fatalf("follower GET %s: status %d", path, fcode)
		}
		if !bytes.Equal(fbody, body) {
			t.Errorf("%s: follower body differs from leader (%d vs %d bytes)", path, len(fbody), len(body))
		}
		if fetag != etag {
			t.Errorf("%s: follower ETag %s, leader %s", path, fetag, etag)
		}
	}

	// 304 continuity: a client that cached against the leader revalidates
	// successfully against the follower.
	req, err := http.NewRequest(http.MethodGet, followerTS.URL+"/v1/table1", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", leaderETags["/v1/table1"])
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Errorf("follower conditional GET with leader ETag: status %d, want 304", resp.StatusCode)
	}

	// Followers refuse local rebuilds.
	resp, err = http.Post(followerTS.URL+"/admin/rebuild", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("follower POST /admin/rebuild: status %d, want 409", resp.StatusCode)
	}

	// /varz: roles, lag, import counters, and the process section.
	checkVarz := func(base, wantRole string) map[string]any {
		t.Helper()
		code, body, _ := get(t, base, "/varz")
		if code != http.StatusOK {
			t.Fatalf("GET /varz: status %d", code)
		}
		var v map[string]any
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("varz: %v", err)
		}
		repl, _ := v["replication"].(map[string]any)
		if repl == nil {
			t.Fatalf("%s varz has no replication section", wantRole)
		}
		if got := repl["role"]; got != wantRole {
			t.Errorf("varz replication.role = %v, want %q", got, wantRole)
		}
		proc, _ := v["process"].(map[string]any)
		if proc == nil || proc["go_version"] == "" || proc["goroutines"] == nil {
			t.Errorf("%s varz process section = %v", wantRole, proc)
		}
		return v
	}
	checkVarz(leaderTS.URL, "leader")
	fv := checkVarz(followerTS.URL, "follower")
	frepl := fv["replication"].(map[string]any)
	if lag, _ := frepl["lag_generations"].(float64); lag != 0 {
		t.Errorf("follower lag_generations = %v, want 0", lag)
	}
	fstore, _ := fv["store"].(map[string]any)
	if n, _ := fstore["imported_segments"].(float64); n != 1 {
		t.Errorf("follower store.imported_segments = %v, want 1", n)
	}

	// The leader rebuilds with a new seed; the follower catches up and
	// serves the new generation's bytes.
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	if !leaderSrv.RebuildAsync(cfg2) {
		t.Fatal("leader rebuild did not start")
	}
	leaderSrv.Wait()
	leaderGen := leaderSrv.Snapshot().Gen
	if leaderGen < 2 {
		t.Fatalf("leader generation after rebuild = %d, want >= 2", leaderGen)
	}
	if err := repl.SyncOnce(t.Context()); err != nil {
		t.Fatalf("catch-up sync: %v", err)
	}
	if got := followerSrv.Snapshot().Gen; got != leaderGen {
		t.Fatalf("follower serves generation %d after catch-up, want %d", got, leaderGen)
	}
	if st := repl.Status(); st.LagGenerations != 0 || st.AppliedGen != leaderGen {
		t.Errorf("follower status after catch-up = %+v", st)
	}
	for _, path := range []string{"/v1/table1", "/v1/prices?size=24"} {
		_, lbody, letag := get(t, leaderTS.URL, path)
		_, fbody, fetag := get(t, followerTS.URL, path)
		if !bytes.Equal(fbody, lbody) || fetag != letag {
			t.Errorf("%s: follower diverges from leader after catch-up", path)
		}
	}
	// table1 is seed-invariant (it is the paper's historical timeline),
	// but prices are simulated: the reseeded generation must have moved
	// them, or catch-up proved nothing.
	if _, fbody, _ := get(t, followerTS.URL, "/v1/prices?size=24"); bytes.Equal(fbody, leaderBodies["/v1/prices?size=24"]) {
		t.Error("/v1/prices?size=24: reseeded rebuild produced identical bytes; catch-up proves nothing")
	}

	// Leader outage: the follower keeps serving its last good generation
	// and reports the failure, nothing more.
	leaderTS.Close()
	if err := repl.SyncOnce(t.Context()); err == nil {
		t.Error("sync against a closed leader succeeded")
	}
	if st := repl.Status(); st.ConsecutiveFailures == 0 {
		t.Error("outage not reflected in follower status")
	}
	code, body, etag := get(t, followerTS.URL, "/v1/table1")
	if code != http.StatusOK {
		t.Fatalf("follower GET /v1/table1 during outage: status %d", code)
	}
	_, lbody, letag := code, body, etag // follower's own last-good answer
	if !bytes.Equal(lbody, body) || letag != etag {
		t.Error("follower answer changed during outage")
	}
	if got := followerSrv.Snapshot().Gen; got != leaderGen {
		t.Errorf("follower serves generation %d during outage, want %d (last good)", got, leaderGen)
	}
}

// TestFollowerNeverBuilds pins the follower-mode boot contract: an empty
// store is an error (a follower must sync first, never cold-build), and
// RebuildAsync declines.
func TestFollowerNeverBuilds(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = serve.New(e2eConfig(), serve.Options{Store: st, Follower: true})
	if err == nil {
		t.Fatal("follower over an empty store booted (must refuse, not cold-build)")
	}
	if got := st.Stats().Persists; got != 0 {
		t.Errorf("follower boot persisted %d generations", got)
	}
}

// TestFollowerAdoptMissingGeneration pins AdoptGeneration's error path:
// a generation the store does not hold is an error, and the served
// snapshot is unchanged.
func TestFollowerAdoptMissingGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot build in -short mode")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(e2eConfig(), serve.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot()
	if err := srv.AdoptGeneration(before.Gen + 7); err == nil {
		t.Fatal("adopting a missing generation succeeded")
	}
	if srv.Snapshot() != before {
		t.Error("failed adopt swapped the snapshot")
	}
}

// TestFollowerAdoptServedGenerationIsNoop pins that re-adopting the
// generation already served keeps the snapshot instead of restoring the
// same segment a second time.
func TestFollowerAdoptServedGenerationIsNoop(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot build in -short mode")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(e2eConfig(), serve.Options{Store: st})
	if err != nil {
		t.Fatal(err)
	}
	before := srv.Snapshot()
	if err := srv.AdoptGeneration(before.Gen); err != nil {
		t.Fatal(err)
	}
	if srv.Snapshot() != before {
		t.Error("adopting the served generation swapped the snapshot")
	}
}
