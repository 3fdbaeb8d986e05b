package simulation_test

import (
	"path/filepath"
	"reflect"
	"testing"

	"ipv4market/internal/scenario"
	"ipv4market/internal/simulation"
)

// TestRPKIHistoryMatchesPerDayObserve checks BuildRPKIHistory, which
// finds each delegation's presence set once per lease, against
// PerDayRPKIHistory, which observes every (lease, day) through
// History.Observe: the delegation count, the presence and churn series
// and a consistency-rule grid must be equal at DefaultConfig and the
// churnstorm scenario (storm drops and stale authorizations). With a
// drop probability of 1 the flaky leases drop every day of their life
// and must add no delegation. The test world runs under -short.
func TestRPKIHistoryMatchesPerDayObserve(t *testing.T) {
	type world struct {
		name string
		cfg  simulation.Config
	}
	worlds := []world{{"test", simulation.SmallWorldConfig()}}
	if !testing.Short() {
		worlds = append(worlds, world{"default", simulation.DefaultConfig()})
		specs, err := scenario.LoadDir(filepath.Join("..", "..", "examples", "scenarios"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			if specs[i].Name == "churnstorm" {
				worlds = append(worlds, world{"churnstorm", specs[i].Config(simulation.DefaultConfig())})
			}
		}
		if len(worlds) != 3 {
			t.Fatal("examples/scenarios has no churnstorm spec")
		}
	}
	ms, ns := []int{1, 5, 10, 30, 100}, []int{0, 3, 10}
	for _, wc := range worlds {
		w, err := simulation.Build(wc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		var delegations [2]int
		for i, dropProb := range []float64{simulation.DefaultROADropProb, 1} {
			got := w.BuildRPKIHistory(0.8, dropProb)
			want := w.PerDayRPKIHistory(0.8, dropProb)
			name := wc.name
			if dropProb == 1 {
				name += "/every flaky day dropped"
			}
			delegations[i] = got.NumDelegations()
			if got.NumDelegations() != want.NumDelegations() {
				t.Errorf("%s: %d delegations, per-day Observe %d", name, got.NumDelegations(), want.NumDelegations())
			}
			if !reflect.DeepEqual(got.PresenceCount(), want.PresenceCount()) {
				t.Errorf("%s: PresenceCount differs from per-day Observe", name)
			}
			if !reflect.DeepEqual(got.DailyChurn(), want.DailyChurn()) {
				t.Errorf("%s: DailyChurn differs from per-day Observe", name)
			}
			gotGrid, err := got.EvaluateGrid(ms, ns)
			if err != nil {
				t.Fatal(err)
			}
			wantGrid, err := want.EvaluateGrid(ms, ns)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotGrid, wantGrid) {
				t.Errorf("%s: EvaluateGrid = %v, per-day Observe %v", name, gotGrid, wantGrid)
			}
		}
		if delegations[1] >= delegations[0] {
			t.Errorf("%s: %d delegations with every flaky day dropped, %d without; want fewer", wc.name, delegations[1], delegations[0])
		}
	}
}
