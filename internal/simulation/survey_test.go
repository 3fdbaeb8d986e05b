package simulation_test

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ipv4market/internal/bgp"
	"ipv4market/internal/scenario"
	"ipv4market/internal/simulation"
)

// TestCollectorAtMatchesSurveyAt is the oracle for SurveyAt, which
// computes the origin survey without building RIBs: the survey must
// equal the one obtained from CollectorAt's materialized per-monitor
// RIBs through Collector.AddViewsTo (the MRT export path) — every pair
// with its monitor count and MOAS and AS_SET flags, the raw pairs, and
// the monitor total. Days cover the window's ends and middle, scrubbing
// episodes and hijack waves; every day carries AS_SET aggregates. The
// test world runs always, DefaultConfig and the churnstorm scenario
// outside -short.
func TestCollectorAtMatchesSurveyAt(t *testing.T) {
	type world struct {
		name string
		cfg  simulation.Config
	}
	small := simulation.SmallWorldConfig()
	small.RoutingDays = 200 // room for scrubbing episodes
	small.HijackWaves = []simulation.HijackWave{{Window: simulation.DayWindow{StartDay: 20, EndDay: 30}, Rate: 6}}
	worlds := []world{{"test", small}}
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
	scrubDays, waveDays := 0, 0
	for _, wc := range worlds {
		w, err := simulation.Build(wc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := simulation.NewRoutingSim(w)
		last := wc.cfg.RoutingDays - 1
		days := map[int]bool{0: true, last / 2: true, last: true}
		// The first days of up to two scrubbing episodes.
		for d, n := 0, 0; d <= last && n < 2; d++ {
			if len(rs.ScrubbedPrefixesOn(d)) > 0 && (d == 0 || len(rs.ScrubbedPrefixesOn(d-1)) == 0) {
				days[d] = true
				n++
				scrubDays++
			}
		}
		for _, hw := range wc.cfg.HijackWaves {
			days[hw.Window.StartDay] = true
			waveDays++
		}
		sorted := make([]int, 0, len(days))
		for d := range days {
			sorted = append(sorted, d)
		}
		sort.Ints(sorted)
		for _, day := range sorted {
			direct := rs.SurveyAt(day)
			viaRIBs := bgp.NewOriginSurvey()
			asSetRoutes := 0
			for i := 0; i < rs.NumCollectors(); i++ {
				c := rs.CollectorAt(day, i)
				c.AddViewsTo(viaRIBs)
				for p := 0; p < c.NumPeers(); p++ {
					for _, r := range c.PeerRIB(p).Routes() {
						if r.Path.EndsInSet() {
							asSetRoutes++
						}
					}
				}
			}
			if asSetRoutes == 0 {
				t.Errorf("%s day %d: no AS_SET route in any RIB; the AS_SET path goes unchecked", wc.name, day)
			}
			if direct.NumMonitors() != viaRIBs.NumMonitors() {
				t.Errorf("%s day %d: NumMonitors %d, via RIBs %d", wc.name, day, direct.NumMonitors(), viaRIBs.NumMonitors())
			}
			if got, want := direct.Pairs(), viaRIBs.Pairs(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s day %d: Pairs differ (%d pairs, via RIBs %d)%s", wc.name, day, len(got), len(want), firstPairDiff(got, want))
			}
			if !reflect.DeepEqual(direct.RawPairs(), viaRIBs.RawPairs()) {
				t.Errorf("%s day %d: RawPairs differ", wc.name, day)
			}
		}
	}
	if scrubDays == 0 || waveDays == 0 {
		t.Errorf("%d scrubbing episodes and %d hijack waves checked, want some of each", scrubDays, waveDays)
	}
}

// firstPairDiff describes the first index where two pair lists differ.
func firstPairDiff(got, want []bgp.PrefixOrigin) string {
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return ": first at " + got[i].Prefix.String()
		}
	}
	return ""
}
