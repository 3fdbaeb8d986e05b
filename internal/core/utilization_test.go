package core_test

import (
	"path/filepath"
	"testing"

	"ipv4market/internal/core"
	"ipv4market/internal/netblock"
	"ipv4market/internal/scenario"
	"ipv4market/internal/simulation"
)

// TestUtilizationMatchesPerQuarterSets checks the one-pass utilization
// series against the per-quarter sets it replaced: each quarter's
// Allocated must be the size of the union of the allocations dated on
// or before its sample day, and Routed the size of the union of the
// prefixes whose Pairs entries pass the AS_SET and visibility filters.
// It runs several seeds of a small world and, outside -short, every
// examples/scenarios spec at DefaultConfig.
func TestUtilizationMatchesPerQuarterSets(t *testing.T) {
	type world struct {
		name string
		cfg  simulation.Config
	}
	var worlds []world
	for _, seed := range []int64{1, 2, 3, 7} {
		cfg := simulation.DefaultConfig()
		cfg.Seed = seed
		cfg.NumLIRs = 14
		cfg.RoutingDays = 200
		cfg.AdministrativeLeases = 120
		cfg.RoutedLeases = 50
		cfg.MonitorsPerCollector = 4
		cfg.SmallAssignmentsPerLIR = 10
		worlds = append(worlds, world{"small", cfg})
	}
	if !testing.Short() {
		specs, err := scenario.LoadDir(filepath.Join("..", "..", "examples", "scenarios"))
		if err != nil {
			t.Fatal(err)
		}
		for i := range specs {
			worlds = append(worlds, world{specs[i].Name, specs[i].Config(simulation.DefaultConfig())})
		}
	}
	for _, w := range worlds {
		s, err := core.NewStudy(w.cfg)
		if err != nil {
			t.Fatalf("%s seed %d: %v", w.name, w.cfg.Seed, err)
		}
		points, err := s.Utilization()
		if err != nil {
			t.Fatal(err)
		}
		if len(points) < 2 {
			t.Fatalf("%s seed %d: %d quarters", w.name, w.cfg.Seed, len(points))
		}
		for _, p := range points {
			allocated := netblock.NewSet()
			for _, a := range s.World.Registry.Allocations() {
				if !a.Date.After(p.Date) {
					allocated.AddPrefix(a.Prefix)
				}
			}
			survey := s.Routing.SurveyAt(int(p.Date.Sub(w.cfg.RoutingStart).Hours() / 24))
			routed := netblock.NewSet()
			for _, po := range survey.Pairs() {
				if !po.ASSet && po.Visibility(survey.NumMonitors()) >= 0.5 {
					routed.AddPrefix(po.Prefix)
				}
			}
			if p.Allocated != allocated.Size() || p.Routed != routed.Size() {
				t.Errorf("%s seed %d %s: allocated %d routed %d, per-quarter sets give %d and %d",
					w.name, w.cfg.Seed, p.Quarter, p.Allocated, p.Routed, allocated.Size(), routed.Size())
			}
		}
	}
}
