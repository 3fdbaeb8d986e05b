package serve

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"ipv4market/internal/core"
	"ipv4market/internal/simulation"
)

// TestBuildSnapshotDeterministic is the parallel pipeline's central
// contract: a snapshot built with any worker count is byte-identical —
// same artifact keys, same JSON and CSV bodies, same ETags — to the
// 1-worker (serial) build of the same config. Run under -race by
// scripts/check.sh, this also shakes out data races between build
// stages.
func TestBuildSnapshotDeterministic(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			cfg := testConfig()
			cfg.Seed = seed

			serial, err := BuildSnapshotOpts(cfg, BuildOptions{Workers: 1})
			if err != nil {
				t.Fatalf("serial build: %v", err)
			}
			for _, workers := range []int{4, 16} {
				par, err := BuildSnapshotOpts(cfg, BuildOptions{Workers: workers})
				if err != nil {
					t.Fatalf("parallel build (workers=%d): %v", workers, err)
				}
				compareSnapshots(t, serial, par, workers)
			}
		})
	}
}

// compareSnapshots asserts every pre-encoded artifact of b matches a.
func compareSnapshots(t *testing.T, a, b *Snapshot, workers int) {
	t.Helper()
	if len(a.static) != len(b.static) {
		t.Fatalf("workers=%d: %d artifacts, serial has %d", workers, len(b.static), len(a.static))
	}
	for key, sa := range a.static {
		pa, ok := b.static[key]
		if !ok {
			t.Errorf("workers=%d: artifact %q missing", workers, key)
			continue
		}
		if sa.jsonETag != pa.jsonETag {
			t.Errorf("workers=%d: %s JSON ETag %s != serial %s", workers, key, pa.jsonETag, sa.jsonETag)
		}
		if !bytes.Equal(sa.json, pa.json) {
			t.Errorf("workers=%d: %s JSON body differs from serial build", workers, key)
		}
		if sa.csvETag != pa.csvETag {
			t.Errorf("workers=%d: %s CSV ETag %s != serial %s", workers, key, pa.csvETag, sa.csvETag)
		}
		if !bytes.Equal(sa.csv, pa.csv) {
			t.Errorf("workers=%d: %s CSV body differs from serial build", workers, key)
		}
	}
	// The stage list is part of the observable /varz surface: same
	// stages, same order, regardless of completion order.
	if len(a.Stages) != len(b.Stages) {
		t.Fatalf("workers=%d: %d stages, serial has %d", workers, len(b.Stages), len(a.Stages))
	}
	for i := range a.Stages {
		if a.Stages[i].Name != b.Stages[i].Name {
			t.Errorf("workers=%d: stage[%d] = %q, serial %q", workers, i, b.Stages[i].Name, a.Stages[i].Name)
		}
	}
	if b.Workers != workers {
		t.Errorf("snapshot records %d workers, built with %d", b.Workers, workers)
	}
	// The temporal index persists as a _state/ artifact; its record bytes
	// must be worker-count independent or followers would diverge.
	ra, err := a.Temporal.Record()
	if err != nil {
		t.Fatalf("serial temporal record: %v", err)
	}
	rb, err := b.Temporal.Record()
	if err != nil {
		t.Fatalf("workers=%d: temporal record: %v", workers, err)
	}
	if !bytes.Equal(ra, rb) {
		t.Errorf("workers=%d: temporal index record differs from serial build", workers)
	}
}

// TestBuildStageErrorNamesStage pins the diagnosability contract: a
// failing stage surfaces its name in the error chain (%w-wrapped), so a
// partial-build failure in a background rebuild names the culprit. The
// test injects a deliberately failing stage; no mutation of the real
// stage table survives the test.
func TestBuildStageErrorNamesStage(t *testing.T) {
	saved := snapshotStages
	defer func() { snapshotStages = saved }()

	boom := errors.New("broken pipeline")
	snapshotStages = append(append([]buildStage(nil), saved...), buildStage{
		name: "exploding",
		run: func(*Snapshot, *core.Study) ([]keyedArtifact, error) {
			return nil, boom
		},
	})

	_, err := BuildSnapshotOpts(testConfig(), BuildOptions{Workers: 4})
	if err == nil {
		t.Fatal("build with a failing stage succeeded, want error")
	}
	if !errors.Is(err, boom) {
		t.Fatalf("error chain lost the cause: %v", err)
	}
	if !strings.Contains(err.Error(), `build stage "exploding"`) {
		t.Fatalf("error does not name the failing stage: %v", err)
	}
}

// withPanickingStage appends a stage named "exploding" that panics to
// the stage table until the test ends.
func withPanickingStage(t *testing.T) {
	t.Helper()
	saved := snapshotStages
	t.Cleanup(func() { snapshotStages = saved })
	snapshotStages = append(append([]buildStage(nil), saved...), buildStage{
		name: "exploding",
		run: func(*Snapshot, *core.Study) ([]keyedArtifact, error) {
			panic("stage blew up")
		},
	})
}

// TestBuildStagePanicNamesStage pins supervision at one worker: a
// panicking stage is an error that names the stage, as at any other
// worker count, never a crash.
func TestBuildStagePanicNamesStage(t *testing.T) {
	withPanickingStage(t)
	for _, workers := range []int{1, 4} {
		_, err := BuildSnapshotOpts(testConfig(), BuildOptions{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: build with a panicking stage succeeded, want error", workers)
		}
		if msg := err.Error(); !strings.Contains(msg, `build stage "exploding"`) || !strings.Contains(msg, "stage blew up") {
			t.Fatalf("workers=%d: error does not name the panicking stage and its value: %v", workers, err)
		}
	}
}

// TestRebuildAsyncCountsStagePanic pins the background rebuild's side
// of it: a one-worker rebuild whose stage panics is counted in
// rebuilds.errors and last_error, and the old snapshot stays served.
func TestRebuildAsyncCountsStagePanic(t *testing.T) {
	srv, err := New(testConfig(), Options{BuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	withPanickingStage(t)
	rebuildFails(t, srv, `build stage "exploding"`)
}

// TestRebuildAsyncCountsStudyPanic: the study stage runs ahead of the
// artifact stages, under the same supervision.
func TestRebuildAsyncCountsStudyPanic(t *testing.T) {
	srv, err := New(testConfig(), Options{BuildWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	saved := newStudy
	t.Cleanup(func() { newStudy = saved })
	newStudy = func(simulation.Config) (*core.Study, error) { panic("study blew up") }
	rebuildFails(t, srv, `build stage "study"`)
}

// TestRebuildAsyncCountsPersistPanic: persist runs after the build
// under the same supervision. A stage that yields a nil artifact builds
// fine, and persist panics dereferencing it; the store keeps its old
// generation too.
func TestRebuildAsyncCountsPersistPanic(t *testing.T) {
	st := openStore(t, t.TempDir())
	srv, err := New(testConfig(), Options{BuildWorkers: 1, Store: st})
	if err != nil {
		t.Fatal(err)
	}
	saved := snapshotStages
	t.Cleanup(func() { snapshotStages = saved })
	snapshotStages = append(append([]buildStage(nil), saved...), buildStage{
		name: "hollow",
		run: func(*Snapshot, *core.Study) ([]keyedArtifact, error) {
			return []keyedArtifact{{"hollow", nil}}, nil
		},
	})
	gen := srv.Snapshot().Gen
	rebuildFails(t, srv, "serve: persist: ")
	if latest, _ := st.Latest(); latest.Gen != gen {
		t.Fatalf("store latest generation %d after a failed persist, want %d", latest.Gen, gen)
	}
}

// rebuildFails runs one background rebuild of srv, which must fail: it
// is counted in rebuilds.errors, last_error contains want, and the old
// snapshot stays served.
func rebuildFails(t *testing.T, srv *Server, want string) {
	t.Helper()
	old := srv.Snapshot()
	if !srv.RebuildAsync(srv.rebuildConfig(old.Cfg.Seed+1, true)) {
		t.Fatal("RebuildAsync declined")
	}
	srv.Wait()
	if got := srv.Snapshot(); got != old {
		t.Fatalf("served snapshot seq %d after a failed rebuild, want the old seq %d", got.Seq, old.Seq)
	}
	v := srv.varz(time.Now()).Rebuilds
	if v.Total != 1 || v.Errors != 1 {
		t.Fatalf("rebuilds total=%d errors=%d, want 1 and 1", v.Total, v.Errors)
	}
	if !strings.Contains(v.LastError, want) {
		t.Fatalf("last_error = %q, want it to contain %q", v.LastError, want)
	}
}

// TestBuildRefusesEmptyWindow pins the up-front config validation.
func TestBuildRefusesEmptyWindow(t *testing.T) {
	cfg := testConfig()
	cfg.RoutingDays = 0
	if _, err := BuildSnapshotOpts(cfg, BuildOptions{}); err == nil {
		t.Fatal("build with RoutingDays=0 succeeded, want error")
	}
}
