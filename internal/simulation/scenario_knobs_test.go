package simulation

import (
	"fmt"
	"testing"
	"time"

	"ipv4market/internal/netblock"
)

func knobTestConfig() Config {
	cfg := DefaultConfig()
	cfg.NumLIRs = 10
	cfg.RoutingDays = 30
	return cfg
}

func mustBuild(t *testing.T, cfg Config) *World {
	t.Helper()
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestDayWindowContains(t *testing.T) {
	w := DayWindow{StartDay: 5, EndDay: 10}
	for day, want := range map[int]bool{4: false, 5: true, 9: true, 10: false} {
		if got := w.Contains(day); got != want {
			t.Errorf("Contains(%d) = %v, want %v", day, got, want)
		}
	}
}

func TestPriceShockFactor(t *testing.T) {
	cfg := knobTestConfig()
	cfg.PriceShocks = []PriceShock{
		{Start: time.Date(2019, 1, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2019, 7, 1, 0, 0, 0, 0, time.UTC), Factor: 1.5},
		{Start: time.Date(2019, 6, 1, 0, 0, 0, 0, time.UTC), End: time.Date(2019, 8, 1, 0, 0, 0, 0, time.UTC), Factor: 2},
	}
	cases := []struct {
		t    time.Time
		want float64
	}{
		{time.Date(2018, 12, 31, 0, 0, 0, 0, time.UTC), 1},
		{time.Date(2019, 2, 1, 0, 0, 0, 0, time.UTC), 1.5},
		{time.Date(2019, 6, 15, 0, 0, 0, 0, time.UTC), 3}, // overlap compounds
		{time.Date(2019, 7, 15, 0, 0, 0, 0, time.UTC), 2},
		{time.Date(2019, 8, 1, 0, 0, 0, 0, time.UTC), 1}, // end is exclusive
	}
	for _, tc := range cases {
		if got := cfg.priceShockFactor(tc.t); got != tc.want {
			t.Errorf("priceShockFactor(%s) = %g, want %g", tc.t.Format("2006-01-02"), got, tc.want)
		}
	}
}

func TestHijackRateOn(t *testing.T) {
	cfg := knobTestConfig()
	cfg.HijackRate = 0.8
	cfg.HijackWaves = []HijackWave{
		{Window: DayWindow{StartDay: 10, EndDay: 20}, Rate: 5},
		{Window: DayWindow{StartDay: 15, EndDay: 25}, Rate: 9},
	}
	cases := map[int]float64{5: 0.8, 10: 5, 17: 9 /* last matching wave wins */, 24: 9, 25: 0.8}
	for day, want := range cases {
		if got := cfg.hijackRateOn(day); got != want {
			t.Errorf("hijackRateOn(%d) = %g, want %g", day, got, want)
		}
	}
}

func TestStormOn(t *testing.T) {
	cfg := knobTestConfig()
	cfg.RPKIChurnStorms = []RPKIChurnStorm{
		{Window: DayWindow{StartDay: 3, EndDay: 8}, DropProb: 0.5},
	}
	if _, on := cfg.stormOn(2); on {
		t.Error("storm active before its window")
	}
	if storm, on := cfg.stormOn(5); !on || storm.DropProb != 0.5 {
		t.Errorf("stormOn(5) = %+v, %v; want the configured storm", storm, on)
	}
	if _, on := cfg.stormOn(8); on {
		t.Error("storm active at its exclusive end day")
	}
}

// TestKnobsOffIsByteIdenticalWorld is the central determinism guarantee:
// a config with zero scenario knobs generates exactly the world the
// pre-knob generator did — empty knob slices must not consume or
// reshuffle any RNG stream.
func TestKnobsOffIsByteIdenticalWorld(t *testing.T) {
	a := mustBuild(t, knobTestConfig())
	cfgB := knobTestConfig()
	cfgB.PriceShocks = []PriceShock{}
	cfgB.RPKIChurnStorms = []RPKIChurnStorm{}
	cfgB.HijackWaves = []HijackWave{}
	b := mustBuild(t, cfgB)

	if len(a.Prices) != len(b.Prices) {
		t.Fatalf("price record counts differ: %d vs %d", len(a.Prices), len(b.Prices))
	}
	for i := range a.Prices {
		if a.Prices[i] != b.Prices[i] {
			t.Fatalf("price record %d differs: %+v vs %+v", i, a.Prices[i], b.Prices[i])
		}
	}
	if len(a.Leases) != len(b.Leases) {
		t.Fatalf("lease counts differ: %d vs %d", len(a.Leases), len(b.Leases))
	}
}

// TestPriceShockRaisesWindowPrices compares the same seed with and
// without a shock: deals inside the window get dearer by the factor,
// deals outside it are untouched (same RNG draws either way).
func TestPriceShockRaisesWindowPrices(t *testing.T) {
	base := mustBuild(t, knobTestConfig())

	cfg := knobTestConfig()
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(2018, 1, 1, 0, 0, 0, 0, time.UTC)
	cfg.PriceShocks = []PriceShock{{Start: start, End: end, Factor: 2}}
	shocked := mustBuild(t, cfg)

	if len(base.Prices) != len(shocked.Prices) {
		t.Fatalf("shock changed the price record count: %d vs %d", len(base.Prices), len(shocked.Prices))
	}
	inWindow, outside := 0, 0
	for i := range base.Prices {
		bp, sp := base.Prices[i], shocked.Prices[i]
		if !bp.Date.Equal(sp.Date) || bp.Region != sp.Region || bp.Bits != sp.Bits {
			t.Fatalf("shock changed record %d identity: %+v vs %+v", i, bp, sp)
		}
		ratio := sp.PricePerAddr / bp.PricePerAddr
		if !bp.Date.Before(start) && bp.Date.Before(end) {
			inWindow++
			if ratio < 1.99 || ratio > 2.01 {
				t.Errorf("record %d in window: price ratio %g, want 2", i, ratio)
			}
		} else {
			outside++
			if ratio < 0.99 || ratio > 1.01 {
				t.Errorf("record %d outside window: price ratio %g, want 1", i, ratio)
			}
		}
	}
	if inWindow == 0 || outside == 0 {
		t.Fatalf("degenerate test world: %d priced deals in window, %d outside", inWindow, outside)
	}
}

// TestHijackWaveRaisesHijackCount counts hijack announcements per day
// with and without a wave covering the whole window.
func TestHijackWaveRaisesHijackCount(t *testing.T) {
	countHijacks := func(cfg Config) int {
		rs := NewRoutingSim(mustBuild(t, cfg))
		n := 0
		for day := 0; day < cfg.RoutingDays; day++ {
			n += len(rs.dayView(day).hijackMonitors)
		}
		return n
	}
	base := countHijacks(knobTestConfig())
	cfg := knobTestConfig()
	cfg.HijackWaves = []HijackWave{{Window: DayWindow{StartDay: 0, EndDay: cfg.RoutingDays}, Rate: 10}}
	waved := countHijacks(cfg)
	if waved <= base {
		t.Errorf("hijack wave: %d events, want more than the %d baseline", waved, base)
	}
}

// TestChurnStormDegradesPresence: under a storm the RPKI history sees
// fewer observations in the storm window (higher drop probability) —
// and the history before the storm is identical to the baseline.
func TestChurnStormDegradesPresence(t *testing.T) {
	presence := func(cfg Config) []int {
		w := mustBuild(t, cfg)
		return w.BuildRPKIHistory(0.8, DefaultROADropProb).PresenceCount()
	}
	base := presence(knobTestConfig())

	cfg := knobTestConfig()
	cfg.RPKIChurnStorms = []RPKIChurnStorm{{Window: DayWindow{StartDay: 10, EndDay: 20}, DropProb: 0.9}}
	stormed := presence(cfg)

	if len(base) != len(stormed) {
		t.Fatalf("history lengths differ: %d vs %d", len(base), len(stormed))
	}
	var inBase, inStorm int
	for day := 10; day < 20; day++ {
		inBase += base[day]
		inStorm += stormed[day]
	}
	if inStorm >= inBase {
		t.Errorf("storm window presence %d, want below baseline %d", inStorm, inBase)
	}
	for day := 0; day < 10; day++ {
		if base[day] != stormed[day] {
			t.Errorf("day %d before the storm: presence %d vs %d, want identical", day, stormed[day], base[day])
		}
	}
}

// TestStaleROAsOutliveLeases: a storm with a stale-ROA fraction keeps
// some delegations visible after their lease end, so total presence
// exceeds the same storm with no stale fraction.
func TestStaleROAsOutliveLeases(t *testing.T) {
	presence := func(stale float64) int {
		cfg := knobTestConfig()
		cfg.RPKIChurnStorms = []RPKIChurnStorm{{
			Window: DayWindow{StartDay: 0, EndDay: cfg.RoutingDays}, DropProb: DefaultROADropProb, StaleROAFraction: stale,
		}}
		w := mustBuild(t, cfg)
		total := 0
		for _, n := range w.BuildRPKIHistory(0.8, DefaultROADropProb).PresenceCount() {
			total += n
		}
		return total
	}
	without, with := presence(0), presence(1)
	if with <= without {
		t.Errorf("stale-ROA storm presence %d, want above the %d observed without staleness", with, without)
	}
}

func TestActivityFraction(t *testing.T) {
	w := mustBuild(t, knobTestConfig())
	p1 := netblock.MustParsePrefix("10.0.0.0/16")
	p2 := netblock.MustParsePrefix("10.1.0.0/16")

	f1 := w.ActivityFraction(p1)
	if f1 != w.ActivityFraction(p1) {
		t.Error("ActivityFraction is not deterministic for a fixed prefix")
	}
	if f1 == w.ActivityFraction(p2) {
		t.Error("distinct prefixes hash to identical activity; expected spread")
	}
	if f1 < 0.02 || f1 > 0.98 {
		t.Errorf("activity %g outside the clamp [0.02, 0.98]", f1)
	}

	// The configured mean shifts the distribution.
	low := knobTestConfig()
	low.ActivityMean, low.ActivityJitter = 0.1, 0.05
	high := knobTestConfig()
	high.ActivityMean, high.ActivityJitter = 0.9, 0.05
	wLow, wHigh := mustBuild(t, low), mustBuild(t, high)
	var sumLow, sumHigh float64
	for i := 0; i < 64; i++ {
		p := netblock.MustParsePrefix(fmt.Sprintf("10.%d.0.0/16", i))
		sumLow += wLow.ActivityFraction(p)
		sumHigh += wHigh.ActivityFraction(p)
	}
	if sumLow >= sumHigh {
		t.Errorf("mean knob had no effect: low-mean sum %g >= high-mean sum %g", sumLow, sumHigh)
	}
}
