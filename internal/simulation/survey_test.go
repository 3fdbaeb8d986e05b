package simulation_test

import (
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"ipv4market/internal/bgp"
	"ipv4market/internal/netblock"
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
// outside -short. The test world runs once more with 22 monitors per
// collector, 66 in all, so that SurveyAt's monitor bitsets take a
// second word; CollectorAt then builds 66 RIBs a day, so that world is
// checked on one day, the hijack wave's first.
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
			if _, asSetRoutes := checkSurveyAt(t, wc.name, rs, day); asSetRoutes == 0 {
				t.Errorf("%s day %d: no AS_SET route in any RIB; the AS_SET path goes unchecked", wc.name, day)
			}
		}
	}
	if scrubDays == 0 || waveDays == 0 {
		t.Errorf("%d scrubbing episodes and %d hijack waves checked, want some of each", scrubDays, waveDays)
	}

	wide := small
	wide.MonitorsPerCollector = 22
	w, err := simulation.Build(wide)
	if err != nil {
		t.Fatal(err)
	}
	rs := simulation.NewRoutingSim(w)
	if rs.NumMonitors() != 66 {
		t.Fatalf("%d monitors, want 66", rs.NumMonitors())
	}
	checkSurveyAt(t, "test/66 monitors", rs, wide.HijackWaves[0].Window.StartDay)
}

// TestSurveyIntoReusesBuffer refills one buffer day after day, in an
// order that makes the survey grow and shrink, and requires every fill
// to equal a fresh SurveyAt of the same day: the monitors, every pair
// and the raw pairs. The test world runs always, DefaultConfig outside
// -short.
func TestSurveyIntoReusesBuffer(t *testing.T) {
	cfgs := []simulation.Config{simulation.SmallWorldConfig()}
	if !testing.Short() {
		cfgs = append(cfgs, simulation.DefaultConfig())
	}
	for _, cfg := range cfgs {
		w, err := simulation.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rs := simulation.NewRoutingSim(w)
		last := cfg.RoutingDays - 1
		var buf simulation.SurveyBuffer
		for _, day := range []int{last, 0, last / 2, last, 1, last / 3} {
			got, want := rs.SurveyInto(&buf, day), rs.SurveyAt(day)
			if got.NumMonitors() != want.NumMonitors() {
				t.Errorf("%d LIRs day %d: NumMonitors %d, fresh %d", cfg.NumLIRs, day, got.NumMonitors(), want.NumMonitors())
			}
			if !reflect.DeepEqual(got.Pairs(), want.Pairs()) {
				t.Errorf("%d LIRs day %d: reused survey's Pairs differ from a fresh one's", cfg.NumLIRs, day)
			}
			if !reflect.DeepEqual(got.RawPairs(), want.RawPairs()) {
				t.Errorf("%d LIRs day %d: reused survey's RawPairs differ from a fresh one's", cfg.NumLIRs, day)
			}
		}
	}
}

// checkSurveyAt compares rs.SurveyAt(day) with the survey CollectorAt's
// RIBs yield through Collector.AddViewsTo: the monitor total, every pair
// with its monitor count and MOAS and AS_SET flags, and the raw pairs.
// It returns the RIB path's sanitize report and its AS_SET route count.
func checkSurveyAt(t *testing.T, name string, rs *simulation.RoutingSim, day int) (bgp.SanitizeReport, int) {
	t.Helper()
	direct := rs.SurveyAt(day)
	viaRIBs := bgp.NewOriginSurvey()
	var report bgp.SanitizeReport
	asSetRoutes := 0
	for i := 0; i < rs.NumCollectors(); i++ {
		c := rs.CollectorAt(day, i)
		rep := c.AddViewsTo(viaRIBs)
		report.SpecialSpace += rep.SpecialSpace
		report.ReservedASN += rep.ReservedASN
		report.PathLoop += rep.PathLoop
		for p := 0; p < c.NumPeers(); p++ {
			for _, r := range c.PeerRIB(p).Routes() {
				if r.Path.EndsInSet() {
					asSetRoutes++
				}
			}
		}
	}
	if direct.NumMonitors() != viaRIBs.NumMonitors() {
		t.Errorf("%s day %d: NumMonitors %d, via RIBs %d", name, day, direct.NumMonitors(), viaRIBs.NumMonitors())
	}
	if got, want := direct.Pairs(), viaRIBs.Pairs(); !reflect.DeepEqual(got, want) {
		t.Errorf("%s day %d: Pairs differ (%d pairs, via RIBs %d)%s", name, day, len(got), len(want), firstPairDiff(got, want))
	}
	if !reflect.DeepEqual(direct.RawPairs(), viaRIBs.RawPairs()) {
		t.Errorf("%s day %d: RawPairs differ", name, day)
	}
	return report, asSetRoutes
}

// TestSurveyAtSanitizeEdgeCases fires the bgp.Sanitize rules that no
// generated world fires, which SurveyAt decides per announcement and per
// peer rather than on each monitor's path: an AS-path loop (a peer whose
// AS is an announced origin), reserved peer ASes, a reserved ASN inside
// an AS_SET aggregate, and a special-purpose prefix. In each case the
// survey must still equal the RIB path's, and the rule must have dropped
// at least one route there.
func TestSurveyAtSanitizeEdgeCases(t *testing.T) {
	w, err := simulation.Build(simulation.SmallWorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	// An origin every monitor sees, for the loop case.
	var origin bgp.ASN
	base := simulation.NewRoutingSim(w).SurveyAt(w.Cfg.RoutingDays - 1)
	for _, po := range base.Pairs() {
		if po.Monitors == base.NumMonitors() && !po.MOAS && !po.ASSet {
			origin = po.Origin
			break
		}
	}
	if origin == 0 {
		t.Fatal("no origin seen by every monitor")
	}
	last := w.Cfg.RoutingDays - 1
	for _, tc := range []struct {
		name string
		// edit changes the routing and returns the day to check.
		edit    func(rs *simulation.RoutingSim) int
		dropped func(bgp.SanitizeReport) int
	}{
		{"loop", func(rs *simulation.RoutingSim) int {
			rs.SetPeerAS(0, origin)
			rs.SetPeerAS(5, origin)
			// A transit's own announcement seen by that transit as
			// a peer repeats one AS back to back: prepending, no loop.
			rs.Announce(netblock.MustParsePrefix("9.9.9.0/24"), 1299)
			rs.SetPeerAS(7, 1299)
			return last
		}, func(r bgp.SanitizeReport) int { return r.PathLoop }},
		{"reserved peer", func(rs *simulation.RoutingSim) int {
			rs.SetPeerAS(1, 23456)
			rs.SetPeerAS(6, 64512)
			return last
		}, func(r bgp.SanitizeReport) int { return r.ReservedASN }},
		{"reserved in AS_SET", func(rs *simulation.RoutingSim) int {
			// An AS_SET route only shows in the pairs through the ASSet
			// flag of a prefix that also has a plain origin: announce
			// the aggregate's prefix plainly too, and check a day on
			// which some monitor holds each route.
			p := rs.AddToFirstASSet(64512)
			rs.Announce(p, origin)
			for day := last; day >= 0; day-- {
				plain, set := 0, 0
				for i := 0; i < rs.NumCollectors(); i++ {
					c := rs.CollectorAt(day, i)
					for k := 0; k < c.NumPeers(); k++ {
						if r, ok := c.PeerRIB(k).Get(p); ok && r.Path.EndsInSet() {
							set++
						} else if ok {
							plain++
						}
					}
				}
				if plain > 0 && set > 0 {
					return day
				}
			}
			t.Fatal("no day on which monitors hold both the AS_SET and the plain route")
			return 0
		}, func(r bgp.SanitizeReport) int { return r.ReservedASN }},
		{"special-purpose prefix", func(rs *simulation.RoutingSim) int {
			rs.Announce(netblock.MustParsePrefix("192.168.0.0/16"), origin)
			return last
		}, func(r bgp.SanitizeReport) int { return r.SpecialSpace }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rs := simulation.NewRoutingSim(w)
			day := tc.edit(rs)
			report, asSetRoutes := checkSurveyAt(t, tc.name, rs, day)
			if tc.dropped(report) == 0 {
				t.Errorf("the rule dropped no route: %+v", report)
			}
			if asSetRoutes == 0 {
				t.Error("no AS_SET route in any RIB")
			}
		})
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
