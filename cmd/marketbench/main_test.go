package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ipv4market/internal/loadgen"
	"ipv4market/internal/simulation"
)

// fakeMarket answers every default-mix path plausibly enough to pass
// the endpoint validators: JSON everywhere, CSV when format=csv.
func fakeMarket(t *testing.T) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Query().Get("format") == "csv" {
			w.Header().Set("Content-Type", "text/csv")
			fmt.Fprintln(w, "quarter,price")
			fmt.Fprintln(w, "2020Q1,22.5")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"path":%q}`, r.URL.Path)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestFlagValidation pins the CLI contract: -marketd is required,
// malformed values are refused, and a zero world size resolves to
// marketd's DefaultConfig.
func TestFlagValidation(t *testing.T) {
	cases := [][]string{
		{},                                    // no marketd binary
		{"-marketd", "bin", "-requests", "0"}, // nothing to measure
		{"-marketd", "bin", "-error-budget", "-1"},  // negative budget
		{"-marketd", "bin", "-lirs", "-3"},          // negative world size
		{"-marketd", "bin", "-topologies", "0,2"},   // retired: one fleet only
		{"-marketd", "bin", "-target", "http://x"},  // retired: no single-target mode
		{"-marketd", "bin", "-mode", "open"},        // retired: closed loop only
		{"-marketd", "bin", "-procedure", "recipe"}, // retired: marketbench owns the text
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) accepted", args)
		}
	}

	f, err := parseFlags([]string{"-marketd", "bin"})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.world, simulation.DefaultConfig()) {
		t.Errorf("default world %+v, want simulation.DefaultConfig()", f.world)
	}
	f, err = parseFlags([]string{"-marketd", "bin", "-lirs", "14", "-days", "40"})
	if err != nil {
		t.Fatal(err)
	}
	if want := simulation.DefaultConfig().Seed; f.world.NumLIRs != 14 || f.world.RoutingDays != 40 || f.world.Seed != want {
		t.Errorf("world %+v, want 14 LIRs, 40 days, seed %d", f.world, want)
	}
}

// TestBudgetViolation drives an all-500 server and expects the rendered
// report to fail its zero budget.
func TestBudgetViolation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		http.Error(w, "overloaded", http.StatusInternalServerError)
	}))
	t.Cleanup(ts.Close)
	tp := loadgen.NewTopologyReport(topology, followers, 0, driveFake(t, ts.URL))
	err := budgetVerdict(&tp)
	if err == nil {
		t.Fatal("all-500 run passed a zero error budget")
	}
	if !strings.Contains(err.Error(), "violated its error budget") {
		t.Errorf("error = %v, want a budget violation", err)
	}

	tp = loadgen.NewTopologyReport(topology, followers, 0, driveFake(t, fakeMarket(t).URL))
	if err := budgetVerdict(&tp); err != nil {
		t.Errorf("clean run failed its zero budget: %v", err)
	}
}

// TestWriteBaselineRoundTrips writes a minimal baseline and reads it
// back through the schema Validate path.
func TestWriteBaselineRoundTrips(t *testing.T) {
	ts := fakeMarket(t)
	res := driveFake(t, ts.URL)

	b := loadgen.NewClusterBaseline("2020-01-02", "scripts/bench.sh cluster", "test")
	tp := loadgen.NewTopologyReport(topology, followers, 0.01, res)
	tp.World = loadgen.WorldParams{Seed: 1, LIRs: 14, Days: 40}
	b.Topologies = []loadgen.TopologyReport{tp}

	path := filepath.Join(t.TempDir(), "BENCH_cluster.json")
	if err := writeBaseline(path, &b); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back loadgen.ClusterBaseline
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("written baseline does not validate: %v", err)
	}
	if back.Topologies[0].Aggregate.Requests != res.Completed {
		t.Errorf("round-tripped aggregate requests %d, want %d",
			back.Topologies[0].Aggregate.Requests, res.Completed)
	}
}

// driveFake runs a short deterministic load against base.
func driveFake(t *testing.T, base string) *loadgen.Result {
	t.Helper()
	runner, err := loadgen.NewRunner(loadgen.Spec{
		BaseURL:  base,
		Mix:      loadgen.DefaultMix(),
		Seed:     3,
		Requests: 150,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := runner.Run(t.Context())
	if err != nil {
		t.Fatal(err)
	}
	return res
}
