package loadgen

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ipv4market/internal/simulation"
)

// TestBenchClusterJSONParses keeps the committed BENCH_cluster.json
// well-formed and current: it must decode through the same
// ClusterBaseline schema cmd/marketbench writes, validate structurally,
// hold the one leader+2 fleet row with zero error-budget violations,
// and carry the suite's fingerprint — the world is
// simulation.DefaultConfig() and the endpoint rows are exactly
// DefaultMix's endpoints. Changing either without re-recording
// (scripts/bench.sh -suite cluster) fails here.
func TestBenchClusterJSONParses(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCH_cluster.json"))
	if err != nil {
		t.Fatalf("read baseline: %v", err)
	}
	var b ClusterBaseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatalf("BENCH_cluster.json is not valid JSON: %v", err)
	}
	if err := b.Validate(); err != nil {
		t.Fatalf("BENCH_cluster.json is malformed: %v", err)
	}
	if len(b.Topologies) != 1 {
		t.Fatalf("baseline records %d topologies, want the one leader+2 fleet", len(b.Topologies))
	}
	fleet := b.Topologies[0]
	if fleet.Name != "leader+2" || fleet.Followers != 2 {
		t.Errorf("topology %q with %d followers, want leader+2 with 2", fleet.Name, fleet.Followers)
	}
	if fleet.ErrorBudget.Violated {
		t.Error("recorded with a violated error budget")
	}
	if len(fleet.Server) == 0 {
		t.Error("no server-side /varz cross-check rows")
	}
	for _, e := range fleet.Events {
		if e.Name == "" || e.AtSeconds < 0 {
			t.Errorf("malformed event %+v", e)
		}
	}

	cfg := simulation.DefaultConfig()
	if want := (WorldParams{Seed: cfg.Seed, LIRs: cfg.NumLIRs, Days: cfg.RoutingDays}); fleet.World != want {
		t.Errorf("recorded world %+v, want simulation.DefaultConfig() %+v: re-record with scripts/bench.sh -suite cluster",
			fleet.World, want)
	}
	var want, got []string
	for _, e := range DefaultMix().Endpoints() {
		want = append(want, e.Name)
	}
	for _, e := range fleet.Endpoints {
		got = append(got, e.Name)
	}
	sort.Strings(want)
	sort.Strings(got)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("recorded endpoint rows %v, want DefaultMix's %v: re-record with scripts/bench.sh -suite cluster", got, want)
	}
}
