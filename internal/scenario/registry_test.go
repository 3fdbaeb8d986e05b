package scenario

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"ipv4market/internal/simulation"
)

// testBase is a small world so each scenario builds in well under a
// second; the scenario contract is scale-independent.
func testBase() simulation.Config {
	cfg := simulation.DefaultConfig()
	cfg.NumLIRs = 10
	cfg.RoutingDays = 30
	return cfg
}

func testSpecs() []Spec {
	return []Spec{
		{Name: "calm", Default: true, Seed: 3},
		{Name: "storm", Seed: 11,
			RPKIChurnStorms: []ChurnStormSpec{{StartDay: 5, EndDay: 20, DropProb: 0.4, StaleROAFraction: 0.5}},
			HijackWaves:     []HijackWaveSpec{{StartDay: 5, EndDay: 15, Rate: 3}},
		},
	}
}

func newTestRegistry(t *testing.T, opts Options) *Registry {
	t.Helper()
	if opts.BaseCfg.NumLIRs == 0 {
		opts.BaseCfg = testBase()
	}
	reg, err := New(context.Background(), testSpecs(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return reg
}

// get performs one request against the registry router and returns the
// response.
func get(t *testing.T, reg *Registry, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	reg.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	return rec
}

func getOK(t *testing.T, reg *Registry, path string) ([]byte, string) {
	t.Helper()
	rec := get(t, reg, path)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", path, rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes(), rec.Header().Get("ETag")
}

// TestMatrixDeterminism builds the same two-scenario matrix twice with
// different worker counts and requires byte- and ETag-identical
// artifacts per scenario.
func TestMatrixDeterminism(t *testing.T) {
	regA := newTestRegistry(t, Options{ScenarioWorkers: 1, BuildWorkers: 1})
	regB := newTestRegistry(t, Options{ScenarioWorkers: 2, BuildWorkers: 4})

	paths := []string{"/table1", "/transfers", "/utilization", "/rpki", "/prices", "/headline"}
	for _, name := range regA.Names() {
		for _, p := range paths {
			full := "/v1/" + name + p
			bodyA, etagA := getOK(t, regA, full)
			bodyB, etagB := getOK(t, regB, full)
			if !bytes.Equal(bodyA, bodyB) {
				t.Errorf("%s: bodies differ across worker counts (%d vs %d bytes)", full, len(bodyA), len(bodyB))
			}
			if etagA == "" || etagA != etagB {
				t.Errorf("%s: ETag %q vs %q across worker counts", full, etagA, etagB)
			}
		}
	}
}

// TestScenarioIsolation rebuilds one scenario and requires every other
// scenario's bytes, ETags, and generations to be untouched — and the
// rebuilt scenario's generation to advance independently.
func TestScenarioIsolation(t *testing.T) {
	reg := newTestRegistry(t, Options{DataDir: t.TempDir(), StoreKeep: 5})

	calmBody, calmETag := getOK(t, reg, "/v1/calm/utilization")
	stormBody, stormETag := getOK(t, reg, "/v1/storm/utilization")
	if bytes.Equal(calmBody, stormBody) {
		t.Fatal("distinct scenarios serve identical utilization artifacts")
	}
	calmGen := reg.World("calm").Snapshot().Gen
	stormGen := reg.World("storm").Snapshot().Gen

	// Rebuild only storm and wait for the swap.
	stormSpec := testSpecs()[1]
	if !reg.World("storm").RebuildAsync(stormSpec.Config(testBase())) {
		t.Fatal("storm rebuild did not start")
	}
	reg.Wait()

	if got := reg.World("storm").Snapshot().Gen; got <= stormGen {
		t.Errorf("storm generation %d did not advance past %d after rebuild", got, stormGen)
	}
	if got := reg.World("calm").Snapshot().Gen; got != calmGen {
		t.Errorf("calm generation moved %d -> %d on a storm rebuild", calmGen, got)
	}
	body2, etag2 := getOK(t, reg, "/v1/calm/utilization")
	if !bytes.Equal(body2, calmBody) || etag2 != calmETag {
		t.Error("calm bytes or ETag changed when storm was rebuilt")
	}
	// storm rebuilt from the same config: same bytes, new generation.
	body3, etag3 := getOK(t, reg, "/v1/storm/utilization")
	if !bytes.Equal(body3, stormBody) || etag3 != stormETag {
		t.Error("storm bytes or ETag changed across a same-config rebuild")
	}
}

// TestDefaultAlias requires bare /v1/... paths to be byte-identical to
// the default scenario's prefixed surface.
func TestDefaultAlias(t *testing.T) {
	reg := newTestRegistry(t, Options{})
	for _, p := range []string{"/v1/table1", "/v1/utilization", "/v1/rpki", "/v1/transfers"} {
		bare, bareETag := getOK(t, reg, p)
		prefixed, prefETag := getOK(t, reg, "/v1/calm"+p[3:])
		if !bytes.Equal(bare, prefixed) || bareETag != prefETag {
			t.Errorf("%s: bare path differs from default scenario's /v1/calm%s", p, p[3:])
		}
	}
}

// TestRouterRewrites covers the non-artifact forms: operational paths,
// the nested replication form a follower URL produces, the bare
// scenario prefix, and unknown scenarios falling through to the default
// mux (a 404, not a panic or a wrong world).
func TestRouterRewrites(t *testing.T) {
	reg := newTestRegistry(t, Options{DataDir: t.TempDir()})

	for _, p := range []string{
		"/v1/storm/healthz", "/v1/storm/varz", "/v1/storm/readyz",
		"/v1/storm/asof?date=2019-03-01&prefix=10.0.0.0/16",
	} {
		if rec := get(t, reg, p); rec.Code != http.StatusOK {
			t.Errorf("GET %s: status %d", p, rec.Code)
		}
	}
	// The follower-side URL shape: LeaderURL is base + /v1/{name}, the
	// replicator appends /v1/replication/..., and the router must strip
	// the scenario prefix.
	body, _ := getOK(t, reg, "/v1/storm/v1/replication/generations")
	var listing struct {
		Generations []struct {
			Gen uint64 `json:"gen"`
		} `json:"generations"`
	}
	if err := json.Unmarshal(body, &listing); err != nil || len(listing.Generations) == 0 {
		t.Errorf("nested replication listing: err=%v generations=%d", err, len(listing.Generations))
	}

	// Bare prefix answers the scenario listing.
	body, _ = getOK(t, reg, "/v1/storm")
	if !bytes.Contains(body, []byte(`"scenarios"`)) {
		t.Errorf("/v1/storm did not answer the scenario listing: %s", body)
	}

	if rec := get(t, reg, "/v1/nosuch/table1"); rec.Code != http.StatusNotFound {
		t.Errorf("unknown scenario answered %d, want 404", rec.Code)
	}
}

// TestListingAndVarz checks the matrix documents: /v1/scenarios names
// every world with its knob summary, and /varz carries one section per
// scenario while the flat fields stay on the default scenario.
func TestListingAndVarz(t *testing.T) {
	reg := newTestRegistry(t, Options{})

	body, _ := getOK(t, reg, "/v1/scenarios")
	var listing struct {
		Default   string `json:"default"`
		Scenarios []struct {
			Name        string `json:"name"`
			Default     bool   `json:"default"`
			Seed        int64  `json:"seed"`
			Adversarial bool   `json:"adversarial"`
			Gen         uint64 `json:"gen"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &listing); err != nil {
		t.Fatalf("/v1/scenarios: %v", err)
	}
	if listing.Default != "calm" || len(listing.Scenarios) != 2 {
		t.Fatalf("listing = %+v, want default calm with 2 scenarios", listing)
	}
	for _, sc := range listing.Scenarios {
		switch sc.Name {
		case "calm":
			if !sc.Default || sc.Adversarial || sc.Seed != 3 {
				t.Errorf("calm entry wrong: %+v", sc)
			}
		case "storm":
			if sc.Default || !sc.Adversarial || sc.Seed != 11 {
				t.Errorf("storm entry wrong: %+v", sc)
			}
		default:
			t.Errorf("unexpected scenario %q in listing", sc.Name)
		}
	}

	body, _ = getOK(t, reg, "/varz")
	var varz struct {
		Snapshot *struct {
			Seed int64 `json:"seed"`
		} `json:"snapshot"`
		Scenarios []struct {
			Name         string  `json:"name"`
			Seed         int64   `json:"seed"`
			BuildSeconds float64 `json:"build_seconds"`
			BuildStages  []struct {
				Name string `json:"name"`
			} `json:"build_stages"`
		} `json:"scenarios"`
	}
	if err := json.Unmarshal(body, &varz); err != nil {
		t.Fatalf("/varz: %v", err)
	}
	if varz.Snapshot == nil || varz.Snapshot.Seed != 3 {
		t.Errorf("flat /varz snapshot fields are not the default scenario's: %+v", varz.Snapshot)
	}
	if len(varz.Scenarios) != 2 {
		t.Fatalf("/varz scenarios: %d sections, want 2", len(varz.Scenarios))
	}
	for _, sec := range varz.Scenarios {
		if len(sec.BuildStages) == 0 {
			t.Errorf("scenario %s: no per-stage build timings on /varz", sec.Name)
		}
	}
	// The scenario-prefixed /varz is the same document served through
	// that scenario's server; its flat fields describe that scenario.
	body, _ = getOK(t, reg, "/v1/storm/varz")
	if err := json.Unmarshal(body, &varz); err != nil {
		t.Fatalf("/v1/storm/varz: %v", err)
	}
	if varz.Snapshot == nil || varz.Snapshot.Seed != 11 {
		t.Errorf("/v1/storm/varz flat seed = %+v, want storm's seed 11", varz.Snapshot)
	}
}

// TestWarmStartMatrix reopens a persisted matrix and requires every
// scenario to warm-start with identical bytes — the multi-scenario form
// of the durability contract — and Run to rebuild every warm-started
// leader world in the background, so a restarted leader does not serve
// its last persisted generation until the next SIGHUP.
func TestWarmStartMatrix(t *testing.T) {
	dir := t.TempDir()
	reg := newTestRegistry(t, Options{DataDir: dir, StoreKeep: 3})
	type answer struct {
		body []byte
		etag string
	}
	want := make(map[string]answer)
	for _, name := range reg.Names() {
		for _, p := range []string{"/utilization", "/table1", "/rpki"} {
			body, etag := getOK(t, reg, "/v1/"+name+p)
			want["/v1/"+name+p] = answer{append([]byte(nil), body...), etag}
		}
	}

	reg2 := newTestRegistry(t, Options{DataDir: dir, StoreKeep: 3})
	for _, name := range reg2.Names() {
		if !reg2.World(name).WarmStarted() {
			t.Errorf("scenario %s did not warm-start from %s", name, dir)
		}
	}
	for path, a := range want {
		body, etag := getOK(t, reg2, path)
		if !bytes.Equal(body, a.body) || etag != a.etag {
			t.Errorf("%s: warm-started answer differs from the persisted one", path)
		}
	}

	restored := make(map[string]uint64)
	for _, name := range reg2.Names() {
		restored[name] = reg2.World(name).Snapshot().Gen
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	reg2.Run(ctx)
	reg2.Wait()
	for _, name := range reg2.Names() {
		if got := reg2.World(name).Snapshot().Gen; got <= restored[name] {
			t.Errorf("scenario %s: generation %d did not advance past restored %d", name, got, restored[name])
		}
	}
}

func TestFollowerModeRequiresDataDir(t *testing.T) {
	_, err := New(context.Background(), testSpecs(), Options{
		BaseCfg:   testBase(),
		FollowURL: "http://127.0.0.1:1",
	})
	if err == nil {
		t.Fatal("follower mode without a data dir accepted")
	}
}

func TestFollowerInitialSyncHonoursContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err := New(ctx, []Spec{{Name: "calm", Seed: 3}}, Options{
		BaseCfg:   testBase(),
		DataDir:   t.TempDir(),
		FollowURL: "http://127.0.0.1:1", // nothing listens here
	})
	if err == nil {
		t.Fatal("follower with an unreachable leader returned without error")
	}
}

// TestFollowerInitialSyncHonoursPollInterval requires the initial-sync
// retry to wait PollInterval between attempts, not a fixed period.
func TestFollowerInitialSyncHonoursPollInterval(t *testing.T) {
	var attempts atomic.Int64
	leader := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		attempts.Add(1)
		http.Error(w, "not yet", http.StatusServiceUnavailable)
	}))
	defer leader.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 600*time.Millisecond)
	defer cancel()
	_, err := New(ctx, []Spec{{Name: "calm", Seed: 3}}, Options{
		BaseCfg:      testBase(),
		DataDir:      t.TempDir(),
		FollowURL:    leader.URL,
		PollInterval: 20 * time.Millisecond,
	})
	if err == nil {
		t.Fatal("follower of a leader with no generations returned without error")
	}
	if n := attempts.Load(); n < 5 {
		t.Errorf("%d sync attempts in 600ms at a 20ms poll interval, want >= 5", n)
	}
}
